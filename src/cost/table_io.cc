#include "cost/table_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <string_view>

#include "common/check.h"

namespace mistral::cost {

namespace {

// A numeric CSV field without the blanks around it (hand-edited files, CRLF
// line ends).
std::string_view trimmed(std::string_view field) {
    const auto first = field.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) return {};
    return field.substr(first, field.find_last_not_of(" \t\r") - first + 1);
}

// Parses the whole of `field` into `out` with from_chars: a trailing unit or
// typo ("39.5abc", "21 watts", tier "2.7") is an error, not a number.
template <class T>
bool parse_whole(std::string_view field, T& out) {
    field = trimmed(field);
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

}  // namespace

cluster::action_kind parse_action_kind(const std::string& name) {
    using cluster::action_kind;
    for (const auto kind :
         {action_kind::increase_cpu, action_kind::decrease_cpu,
          action_kind::add_replica, action_kind::remove_replica,
          action_kind::migrate, action_kind::power_on, action_kind::power_off}) {
        if (name == cluster::to_string(kind)) return kind;
    }
    MISTRAL_CHECK_MSG(false, "unknown action kind '" << name << "'");
    return action_kind::migrate;  // unreachable
}

void write_cost_table_csv(std::ostream& out, const cost_table& table) {
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << "kind,tier,workload,duration,delta_rt_target,delta_rt_colocated,"
           "delta_power\n";
    table.for_each_sample([&](cluster::action_kind kind, std::size_t tier,
                              req_per_sec workload, const cost_entry& e) {
        out << cluster::to_string(kind) << ',' << tier << ',' << workload << ','
            << e.duration << ',' << e.delta_rt_target << ','
            << e.delta_rt_colocated << ',' << e.delta_power << '\n';
    });
}

void save_cost_table_csv(const std::string& path, const cost_table& table) {
    std::ofstream out(path);
    MISTRAL_CHECK_MSG(out.good(), "cannot write cost table " << path);
    write_cost_table_csv(out, table);
}

cost_table read_cost_table_csv(std::istream& in) {
    cost_table table;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        if (line.rfind("kind,", 0) == 0) continue;  // header

        // Every comma separates two fields, so a trailing comma is an empty
        // eighth field rather than nothing.
        std::vector<std::string> fields;
        for (std::size_t begin = 0;;) {
            const auto comma = line.find(',', begin);
            fields.push_back(line.substr(begin, comma - begin));
            if (comma == std::string::npos) break;
            begin = comma + 1;
        }
        MISTRAL_CHECK_MSG(fields.size() == 7,
                          "cost table line " << line_no << ": expected 7 fields, got "
                                             << fields.size() << " in: " << line);
        // A tier is a non-negative integer; every other number is finite.
        std::size_t tier = 0;
        MISTRAL_CHECK_MSG(parse_whole(fields[1], tier),
                          "cost table line " << line_no
                                             << ": tier is not a non-negative "
                                                "integer in: " << line);
        double numbers[5] = {};
        for (std::size_t i = 0; i < 5; ++i) {
            MISTRAL_CHECK_MSG(
                parse_whole(fields[2 + i], numbers[i]) && std::isfinite(numbers[i]),
                "cost table line " << line_no << ": field " << 3 + i
                                   << " is not a finite number in: " << line);
        }
        const cost_entry e{.duration = numbers[1],
                           .delta_rt_target = numbers[2],
                           .delta_rt_colocated = numbers[3],
                           .delta_power = numbers[4]};
        table.add_measurement(parse_action_kind(fields[0]), tier, numbers[0], e);
    }
    return table;
}

cost_table load_cost_table_csv(const std::string& path) {
    std::ifstream in(path);
    MISTRAL_CHECK_MSG(in.good(), "cannot open cost table " << path);
    return read_cost_table_csv(in);
}

}  // namespace mistral::cost
