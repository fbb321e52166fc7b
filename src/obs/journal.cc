#include "obs/journal.h"

#include "common/check.h"
#include "obs/json.h"

namespace mistral::obs {

event& event::num(std::string_view key, double v) {
    field f;
    f.key = std::string(key);
    f.kind = field_kind::number;
    f.num = v;
    fields.push_back(std::move(f));
    return *this;
}

event& event::integer(std::string_view key, std::int64_t v) {
    field f;
    f.key = std::string(key);
    f.kind = field_kind::integer;
    f.integer = v;
    fields.push_back(std::move(f));
    return *this;
}

event& event::boolean(std::string_view key, bool v) {
    field f;
    f.key = std::string(key);
    f.kind = field_kind::boolean;
    f.boolean = v;
    fields.push_back(std::move(f));
    return *this;
}

event& event::text(std::string_view key, std::string v) {
    field f;
    f.key = std::string(key);
    f.kind = field_kind::text;
    f.text = std::move(v);
    fields.push_back(std::move(f));
    return *this;
}

event& event::num_list(std::string_view key, std::vector<double> v) {
    field f;
    f.key = std::string(key);
    f.kind = field_kind::number_list;
    f.numbers = std::move(v);
    fields.push_back(std::move(f));
    return *this;
}

event& event::text_list(std::string_view key, std::vector<std::string> v) {
    field f;
    f.key = std::string(key);
    f.kind = field_kind::text_list;
    f.texts = std::move(v);
    fields.push_back(std::move(f));
    return *this;
}

const event::field* event::find(std::string_view key) const {
    for (const auto& f : fields) {
        if (f.key == key) return &f;
    }
    return nullptr;
}

std::string to_json_line(const event& e) {
    std::string out = "{\"type\":";
    out += quote(e.type);
    out += ",\"t\":";
    out += format_number(e.time);
    for (const auto& f : e.fields) {
        out.push_back(',');
        out += quote(f.key);
        out.push_back(':');
        switch (f.kind) {
            case event::field_kind::number: out += format_number(f.num); break;
            case event::field_kind::integer:
                out += std::to_string(f.integer);
                break;
            case event::field_kind::boolean:
                out += f.boolean ? "true" : "false";
                break;
            case event::field_kind::text: out += quote(f.text); break;
            case event::field_kind::number_list: {
                out.push_back('[');
                for (std::size_t i = 0; i < f.numbers.size(); ++i) {
                    if (i) out.push_back(',');
                    out += format_number(f.numbers[i]);
                }
                out.push_back(']');
                break;
            }
            case event::field_kind::text_list: {
                out.push_back('[');
                for (std::size_t i = 0; i < f.texts.size(); ++i) {
                    if (i) out.push_back(',');
                    out += quote(f.texts[i]);
                }
                out.push_back(']');
                break;
            }
        }
    }
    out.push_back('}');
    return out;
}

const std::vector<std::string>& known_event_types() {
    static const std::vector<std::string> types = {
        "action_fail",       "action_finish",     "action_start",
        "checkpoint",        "decision",          "econ_decision",
        "failsafe_decision", "host_crash",        "host_recover",
        "interval",          "ladder_transition", "lookahead",
        "migration_abort",   "pod_budget",        "pod_decision",
        "pod_migration",     "pod_quarantine",    "pod_reconcile",
        "predictor_divergence", "region_decision", "restart",
        "search",            "tariff_change",     "telemetry_fault",
    };
    return types;
}

journal_contents read_journal(std::istream& in) {
    journal_contents out;
    std::vector<std::string> raw;
    std::string line;
    while (std::getline(in, line)) raw.push_back(std::move(line));
    for (std::size_t i = 0; i < raw.size(); ++i) {
        try {
            out.lines.push_back(json::value::parse(raw[i]));
        } catch (const invariant_error&) {
            if (i + 1 == raw.size()) {
                ++out.torn_lines;
                break;
            }
            throw;
        }
    }
    return out;
}

journal_contents read_journal_file(const std::string& path) {
    std::ifstream in(path);
    MISTRAL_CHECK_MSG(in.is_open(), "cannot open journal file " << path);
    return read_journal(in);
}

jsonl_file_sink::jsonl_file_sink(const std::string& path,
                                 metrics_registry* metrics,
                                 bool flush_per_event)
    : out_(path), metrics_(metrics), flush_per_event_(flush_per_event) {
    MISTRAL_CHECK_MSG(out_.is_open(), "cannot open journal file " << path);
}

std::size_t memory_sink::count(std::string_view type) const {
    std::size_t n = 0;
    for (const auto& e : events_) {
        if (e.type == type) ++n;
    }
    return n;
}

}  // namespace mistral::obs
