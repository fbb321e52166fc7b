// Cost-table persistence.
//
// The paper's cost tables are measured once offline (hours of experiments)
// and consumed at runtime; persisting them is what makes that split real.
// The format is a plain CSV — one row per measurement sample:
//
//     kind,tier,workload,duration,delta_rt_target,delta_rt_colocated,delta_power
//
// with '#' comments and an optional header tolerated, so campaign outputs
// can be inspected, version-controlled, and hand-edited.
#pragma once

#include <iosfwd>
#include <string>

#include "cost/table.h"

namespace mistral::cost {

// Writes every sample of the table (full precision; lookup-time averaging
// re-derives identical results after a round trip).
void write_cost_table_csv(std::ostream& out, const cost_table& table);
void save_cost_table_csv(const std::string& path, const cost_table& table);

// Parses a table written by the functions above (or by hand). Throws
// invariant_error with line context on malformed rows or unknown kinds: each
// numeric field must parse whole (blanks around it aside), the tier must be
// a non-negative integer, and every other number must be finite.
cost_table read_cost_table_csv(std::istream& in);
cost_table load_cost_table_csv(const std::string& path);

// Kind names used in the CSV ("migrate", "add_replica", ...). Exposed for
// tools; round-trips with cluster::to_string(action_kind).
cluster::action_kind parse_action_kind(const std::string& name);

}  // namespace mistral::cost
