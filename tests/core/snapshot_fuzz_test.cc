// Seeded mutation fuzzing of the two decoders that read documents written
// by an earlier process: snapshot_from_json (checkpoints) and
// decision_input_from_json (the decision tail). The seeds are the golden
// documents of snapshot_golden.h; common/mutation_fuzz.h draws the mutants
// and holds the pass rule.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>

#include "../common/mutation_fuzz.h"
#include "core/snapshot.h"

#include "snapshot_golden.h"

namespace mistral::core {
namespace {

constexpr int mutants_per_decoder = 10000;

// Values that sit on or past a decoded field's range: a 64-bit count, a
// huge allocation, the uint32 and int32 edges, a negative id, the double
// edge and a fraction where an integer belongs.
constexpr std::array<std::string_view, 7> edge_numbers = {
    "99999999999", "1e15", "4294967295", "2147483648", "-1", "1e308", "0.5"};

// Bytes a JSON document is made of, so substitutions and insertions mostly
// yield near-valid documents that reach the decoders instead of the parser.
constexpr fuzzing::mutation_alphabet json_alphabet{
    "{}[],:\"0123456789.-+eEtrufalsni ", edge_numbers};

template <class Decode>
fuzzing::tally fuzz(std::string_view seed, Decode decode, std::uint64_t rng_seed) {
    return fuzzing::fuzz(
        seed, json_alphabet, mutants_per_decoder, decode,
        [](const auto& value) { return to_json(value); }, rng_seed);
}

TEST(SnapshotFuzz, MutatedCheckpointsAreRefusedOrRoundTrip) {
    const fuzzing::tally t = fuzz(
        golden::snapshot_json,
        [](std::string_view doc) { return snapshot_from_json(doc); }, 0x5eed01);
    EXPECT_EQ(t.refused + t.accepted, mutants_per_decoder);
    // Both outcomes must occur often, or the mutations miss the decoder.
    EXPECT_GT(t.refused, mutants_per_decoder / 2);
    EXPECT_GT(t.accepted, mutants_per_decoder / 50);
}

TEST(SnapshotFuzz, MutatedDecisionInputsAreRefusedOrRoundTrip) {
    const fuzzing::tally t = fuzz(
        golden::decision_input_json,
        [](std::string_view doc) { return decision_input_from_json(doc); },
        0x5eed02);
    EXPECT_EQ(t.refused + t.accepted, mutants_per_decoder);
    EXPECT_GT(t.refused, mutants_per_decoder / 2);
    EXPECT_GT(t.accepted, mutants_per_decoder / 50);
}

}  // namespace
}  // namespace mistral::core
