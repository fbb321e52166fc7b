// Seeded mutation fuzzing of the two decoders that read documents written
// by an earlier process: snapshot_from_json (checkpoints) and
// decision_input_from_json (the decision tail). The seeds are the golden
// documents of snapshot_golden.h; each mutant stacks one to three byte
// substitutions, deletions, insertions or digit-run replacements drawn from
// a fixed seed, so a failure replays exactly.
//
// Pass rule: every mutant either throws invariant_error, or decodes to a
// value that re-encodes, decodes again and re-encodes to the same bytes.
// Any other exception fails the test; a crash or a sanitizer report fails
// the run (the fuzz label runs under asan and tsan too).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/rng.h"
#include "core/snapshot.h"

#include "snapshot_golden.h"

namespace mistral::core {
namespace {

constexpr int mutants_per_decoder = 10000;

// Bytes a JSON document is made of, so substitutions and insertions mostly
// yield near-valid documents that reach the decoders instead of the parser.
constexpr std::string_view alphabet = "{}[],:\"0123456789.-+eEtrufalsni ";

// Values that sit on or past a decoded field's range: a 64-bit count, a
// huge allocation, the uint32 and int32 edges, a negative id, the double
// edge and a fraction where an integer belongs.
constexpr std::array<std::string_view, 7> edge_numbers = {
    "99999999999", "1e15", "4294967295", "2147483648", "-1", "1e308", "0.5"};

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void mutate_once(std::string& doc, rng& r) {
    const auto at = [&] { return r.uniform_index(doc.size()); };
    const auto letter = [&] { return alphabet[r.uniform_index(alphabet.size())]; };
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
            doc.replace(b, e - b,
                        edge_numbers[r.uniform_index(edge_numbers.size())]);
        }
    }
}

struct tally {
    int refused = 0;   // threw invariant_error
    int accepted = 0;  // decoded and survived its own round trip
};

template <class Decode>
tally fuzz(std::string_view seed, Decode decode, std::uint64_t rng_seed) {
    rng r(rng_seed);
    tally t;
    for (int i = 0; i < mutants_per_decoder; ++i) {
        std::string doc(seed);
        const std::uint64_t rounds = 1 + r.uniform_index(3);
        for (std::uint64_t k = 0; k < rounds; ++k) mutate_once(doc, r);
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
            const std::string text = to_json(*decoded);
            EXPECT_EQ(to_json(decode(text)), text) << "mutant " << i << ":\n" << doc;
            ++t.accepted;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutant " << i << " decoded, but its re-encoding"
                          << " threw " << e.what() << ":\n" << doc;
        }
    }
    return t;
}

TEST(SnapshotFuzz, MutatedCheckpointsAreRefusedOrRoundTrip) {
    const tally t = fuzz(
        golden::snapshot_json,
        [](std::string_view doc) { return snapshot_from_json(doc); }, 0x5eed01);
    EXPECT_EQ(t.refused + t.accepted, mutants_per_decoder);
    // Both outcomes must occur often, or the mutations miss the decoder.
    EXPECT_GT(t.refused, mutants_per_decoder / 2);
    EXPECT_GT(t.accepted, mutants_per_decoder / 50);
}

TEST(SnapshotFuzz, MutatedDecisionInputsAreRefusedOrRoundTrip) {
    const tally t = fuzz(
        golden::decision_input_json,
        [](std::string_view doc) { return decision_input_from_json(doc); },
        0x5eed02);
    EXPECT_EQ(t.refused + t.accepted, mutants_per_decoder);
    EXPECT_GT(t.refused, mutants_per_decoder / 2);
    EXPECT_GT(t.accepted, mutants_per_decoder / 50);
}

}  // namespace
}  // namespace mistral::core
