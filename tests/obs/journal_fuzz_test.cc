// Seeded mutation fuzzing of the journal reader, which reads journals a
// crashed predecessor left behind. The seed holds one line of every known
// event type, with every field kind the emitters write; common/mutation_fuzz.h
// draws the mutants and holds the pass rule: each mutant must be refused
// with invariant_error, or read into lines whose dumps read back to the same
// dumps. A torn final line is skipped and counted, never refused.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>

#include "../common/mutation_fuzz.h"
#include "obs/journal.h"

namespace mistral::obs {
namespace {

constexpr int mutants = 10000;

// Numbers on or past what a journal field holds: past the double range,
// below its subnormals, a negative zero, an integer past 64 bits and a
// number with a unit after it.
constexpr std::array<std::string_view, 7> edge_numbers = {
    "1e999", "1e-999", "-0", "5e-324", "18446744073709551616", "21 watts", "1e308"};

// Bytes a journal line is made of: JSON punctuation and escapes, digits,
// number signs and exponents, and the letters of its literals.
constexpr fuzzing::mutation_alphabet journal_alphabet{
    "{}[]:,\"\\/0123456789.-+eE \t\nntrufalsbu", edge_numbers};

std::string seed_journal() {
    std::ostringstream out;
    jsonl_sink sink(out);
    double t = 0.0;
    for (const auto& type : known_event_types()) {
        t += 120.5;
        sink.record(event(type, t)
                        .integer("pod", 2)
                        .num("expected_utility", -14.25)
                        .boolean("invoked", true)
                        .text("reason", "migrate vm0 -> h1 \"crash\"\t\\")
                        .num_list("step_utilities", {41.0, 1e-7, 3e+21})
                        .text_list("path", {"full", "greedy"}));
    }
    return out.str();
}

std::string dumps(const journal_contents& j) {
    std::string out;
    for (const auto& line : j.lines) out += line.dump() + "\n";
    return out;
}

std::size_t line_count(std::string_view doc) {
    std::istringstream in{std::string(doc)};
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);) ++n;
    return n;
}

TEST(JournalFuzz, MutatedJournalsAreRefusedOrReadBackUnchanged) {
    const std::string seed = seed_journal();
    std::size_t torn = 0;
    const fuzzing::tally t = fuzzing::fuzz(
        seed, journal_alphabet, mutants,
        [&](std::string_view doc) {
            std::istringstream in{std::string(doc)};
            const journal_contents j = read_journal(in);
            // Only the final line may be skipped, and every other line is read.
            EXPECT_LE(j.torn_lines, 1u);
            EXPECT_EQ(j.lines.size() + j.torn_lines, line_count(doc));
            torn += j.torn_lines;
            return j;
        },
        dumps, 0x5eed04);
    EXPECT_EQ(t.refused + t.accepted, mutants);
    // Refusals, clean reads and torn tails must all occur often, or the
    // mutations miss the reader.
    EXPECT_GT(t.refused, mutants / 10);
    EXPECT_GT(t.accepted, mutants / 10);
    EXPECT_GT(torn, static_cast<std::size_t>(mutants / 100));
}

// Every cut through the final line, as a crash between write and flush
// leaves it, is skipped and counted, and the lines before it read whole.
TEST(JournalFuzz, EveryCutThroughTheLastLineIsSkippedAndCounted) {
    const std::string seed = seed_journal();
    const std::size_t last = seed.rfind('\n', seed.size() - 2) + 1;
    std::istringstream whole_in(seed.substr(0, last));
    const std::string before = dumps(read_journal(whole_in));
    for (std::size_t cut = last + 1; cut + 1 < seed.size(); ++cut) {
        std::istringstream in(seed.substr(0, cut));
        const journal_contents j = read_journal(in);
        EXPECT_EQ(j.torn_lines, 1u) << "cut at " << cut;
        EXPECT_EQ(dumps(j), before) << "cut at " << cut;
    }
}

}  // namespace
}  // namespace mistral::obs
