// Seeded mutation fuzzing for the readers of documents written by another
// process (checkpoints, decision tails, cost tables).
//
// Each mutant stacks one to three byte substitutions, deletions, insertions
// or digit-run replacements on a seed document, drawn from a fixed rng seed so
// a failure replays exactly. Substituted and inserted bytes come from the
// format's own alphabet, so most mutants stay near-valid and reach the
// decoder instead of its tokenizer; digit runs are replaced by numbers on or
// past a field's range.
//
// Pass rule: every mutant either throws invariant_error, or decodes to a
// value that encodes, decodes again and encodes to the same bytes. Any other
// exception fails the test; a crash or a sanitizer report fails the run (the
// fuzz label runs under asan and tsan too).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/rng.h"

namespace mistral::fuzzing {

struct mutation_alphabet {
    std::string_view bytes;                         // substitutions, insertions
    std::span<const std::string_view> edge_numbers; // digit-run replacements
};

inline bool is_digit(char c) { return c >= '0' && c <= '9'; }

inline void mutate_once(std::string& doc, rng& r, const mutation_alphabet& a) {
    const auto at = [&] { return r.uniform_index(doc.size()); };
    const auto letter = [&] { return a.bytes[r.uniform_index(a.bytes.size())]; };
    switch (r.uniform_index(4)) {
        case 0:  // substitute one byte
            if (!doc.empty()) doc[at()] = letter();
            break;
        case 1:  // delete up to 8 bytes
            if (!doc.empty()) doc.erase(at(), 1 + r.uniform_index(8));
            break;
        case 2: {  // insert up to 4 bytes
            const std::size_t pos = doc.empty() ? 0 : at();
            const std::size_t n = 1 + r.uniform_index(4);
            for (std::size_t i = 0; i < n; ++i) doc.insert(pos, 1, letter());
            break;
        }
        default: {  // replace the digit run at or after a random offset
            if (doc.empty()) break;
            std::size_t b = at();
            while (b < doc.size() && !is_digit(doc[b])) ++b;
            if (b == doc.size()) break;
            while (b > 0 && is_digit(doc[b - 1])) --b;
            std::size_t e = b;
            while (e < doc.size() && is_digit(doc[e])) ++e;
            doc.replace(b, e - b, a.edge_numbers[r.uniform_index(a.edge_numbers.size())]);
        }
    }
}

struct tally {
    int refused = 0;   // threw invariant_error
    int accepted = 0;  // decoded and survived its own round trip
};

// `decode(std::string_view)` reads a document, `encode(value)` writes one
// back as a std::string.
template <class Decode, class Encode>
tally fuzz(std::string_view seed, const mutation_alphabet& alphabet, int mutants,
           Decode decode, Encode encode, std::uint64_t rng_seed) {
    rng r(rng_seed);
    tally t;
    for (int i = 0; i < mutants; ++i) {
        std::string doc(seed);
        const std::uint64_t rounds = 1 + r.uniform_index(3);
        for (std::uint64_t k = 0; k < rounds; ++k) mutate_once(doc, r, alphabet);
        std::optional<decltype(decode(doc))> decoded;
        try {
            decoded.emplace(decode(doc));
        } catch (const invariant_error&) {
            ++t.refused;
            continue;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutant " << i << " threw " << e.what()
                          << " instead of invariant_error:\n" << doc;
            continue;
        }
        try {
            const std::string text = encode(*decoded);
            EXPECT_EQ(encode(decode(text)), text) << "mutant " << i << ":\n" << doc;
            ++t.accepted;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutant " << i << " decoded, but its re-encoding"
                          << " threw " << e.what() << ":\n" << doc;
        }
    }
    return t;
}

}  // namespace mistral::fuzzing
