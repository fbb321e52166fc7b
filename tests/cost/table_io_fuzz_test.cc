// Seeded mutation fuzzing of the cost-table reader, which reads tables
// measured offline and hand-edited. The seed is the paper_defaults table as
// write_cost_table_csv prints it; common/mutation_fuzz.h draws the mutants
// and holds the pass rule: each mutant must be refused with invariant_error
// or read into a table that writes back unchanged after a second round trip.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <string_view>

#include "../common/mutation_fuzz.h"
#include "cost/table_io.h"

namespace mistral::cost {
namespace {

constexpr int mutants = 10000;

// Numbers on or past a field's range: non-finite spellings, a negative
// tier, the double edge and past it, a fraction where the tier belongs, one
// past size_t, and a field with a unit after its number.
constexpr std::array<std::string_view, 9> edge_numbers = {
    "nan", "inf", "-1", "1e308", "1e999", "2.7", "18446744073709551616",
    "21 watts", "-0"};

// Bytes a cost-table CSV is made of, plus the letters of nan and inf.
constexpr fuzzing::mutation_alphabet csv_alphabet{
    ",0123456789.-+eE \n#nafi", edge_numbers};

std::string to_csv(const cost_table& table) {
    std::ostringstream out;
    write_cost_table_csv(out, table);
    return out.str();
}

TEST(CostTableFuzz, MutatedTablesAreRefusedOrWriteBackUnchanged) {
    const std::string seed = to_csv(cost_table::paper_defaults());
    const fuzzing::tally t = fuzzing::fuzz(
        seed, csv_alphabet, mutants,
        [](std::string_view doc) {
            std::istringstream in{std::string(doc)};
            return read_cost_table_csv(in);
        },
        to_csv, 0x5eed03);
    EXPECT_EQ(t.refused + t.accepted, mutants);
    // Both outcomes must occur often, or the mutations miss the reader.
    EXPECT_GT(t.refused, mutants / 10);
    EXPECT_GT(t.accepted, mutants / 10);
}

}  // namespace
}  // namespace mistral::cost
