// Minimal JSON support for the observability subsystem.
//
// The journal emits JSONL (journal.h) and the Prometheus dump emits numbers
// (metrics.h); both must be parseable back so tests can prove the schema
// round-trips and tools can reconcile a journal against a run's final
// accounting. This header provides the two halves:
//
//  * format_number — the one double formatter every obs emitter uses:
//    shortest representation that round-trips exactly (std::to_chars), so
//    emit → parse → re-emit is the identity on every line.
//  * json::value  — a small recursive-descent parser covering the subset the
//    journal writes (null, booleans, numbers, strings with escapes, arrays,
//    objects). Object member order is preserved, which is what makes the
//    round-trip comparison a plain string equality.
//
// No external dependencies; malformed input throws invariant_error, and so
// does nesting deeper than 64 arrays and objects.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mistral::obs {

// Shortest round-trip decimal form of `v` ("5", "0.25", "1e+300"). Non-finite
// values are not valid JSON; they emit as quoted "inf"/"-inf"/"nan" markers.
[[nodiscard]] std::string format_number(double v);

// Escapes `s` for a JSON string literal and wraps it in quotes.
[[nodiscard]] std::string quote(std::string_view s);

namespace json {

class value {
public:
    enum class kind { null, boolean, number, text, array, object };

    value() = default;  // null

    // Parses exactly one JSON document; trailing non-whitespace throws.
    [[nodiscard]] static value parse(std::string_view text);

    [[nodiscard]] kind type() const { return kind_; }
    [[nodiscard]] bool is_null() const { return kind_ == kind::null; }
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_text() const;
    [[nodiscard]] const std::vector<value>& items() const;  // arrays
    [[nodiscard]] const std::vector<std::pair<std::string, value>>& members()
        const;  // objects, in document order

    // Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const value* find(std::string_view key) const;

    // Serializes back using format_number, preserving member order — the
    // inverse of parse for everything the journal emits.
    [[nodiscard]] std::string dump() const;

private:
    kind kind_ = kind::null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string text_;
    std::vector<value> items_;
    std::vector<std::pair<std::string, value>> members_;

    friend class parser;
};

}  // namespace json

}  // namespace mistral::obs
