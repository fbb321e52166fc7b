#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace mistral::obs {

std::string format_number(double v) {
    if (std::isnan(v)) return "\"nan\"";
    if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    MISTRAL_CHECK(res.ec == std::errc{});
    return std::string(buf, res.ptr);
}

std::string quote(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char esc[8];
                    std::snprintf(esc, sizeof(esc), "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(ch)));
                    out += esc;
                } else {
                    out.push_back(ch);
                }
        }
    }
    out.push_back('"');
    return out;
}

namespace json {

bool value::as_bool() const {
    MISTRAL_CHECK(kind_ == kind::boolean);
    return bool_;
}

double value::as_number() const {
    MISTRAL_CHECK(kind_ == kind::number);
    return number_;
}

const std::string& value::as_text() const {
    MISTRAL_CHECK(kind_ == kind::text);
    return text_;
}

const std::vector<value>& value::items() const {
    MISTRAL_CHECK(kind_ == kind::array);
    return items_;
}

const std::vector<std::pair<std::string, value>>& value::members() const {
    MISTRAL_CHECK(kind_ == kind::object);
    return members_;
}

const value* value::find(std::string_view key) const {
    if (kind_ != kind::object) return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key) return &v;
    }
    return nullptr;
}

// Recursive-descent parser over an index cursor. The journal writes compact
// single-line documents, so there is no need for streaming.
class parser {
public:
    explicit parser(std::string_view text) : text_(text) {}

    value parse_document() {
        value v = parse_value();
        skip_ws();
        MISTRAL_CHECK_MSG(at_ == text_.size(),
                          "trailing JSON content at offset " << at_);
        return v;
    }

private:
    // Arrays and objects recurse once per level, so their depth is bounded
    // before the stack is: a run of open brackets must throw, not overflow.
    // The deepest document the program writes, a checkpoint, nests 8 levels.
    static constexpr int max_depth = 64;

    std::string_view text_;
    std::size_t at_ = 0;
    int depth_ = 0;

    [[noreturn]] void fail(const char* what) const {
        MISTRAL_CHECK_MSG(false, "malformed JSON: " << what << " at offset "
                                                    << at_);
        std::abort();  // unreachable; MISTRAL_CHECK_MSG throws
    }

    void skip_ws() {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
                text_[at_] == '\r')) {
            ++at_;
        }
    }

    char peek() {
        if (at_ >= text_.size()) fail("unexpected end of input");
        return text_[at_];
    }

    void expect(char ch) {
        if (peek() != ch) fail("unexpected character");
        ++at_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(at_, lit.size()) != lit) return false;
        at_ += lit.size();
        return true;
    }

    value parse_value() {
        skip_ws();
        switch (peek()) {
            case '{':
            case '[': {
                if (++depth_ > max_depth) fail("nesting too deep");
                value v = peek() == '{' ? parse_object() : parse_array();
                --depth_;
                return v;
            }
            case '"': {
                value v;
                v.kind_ = value::kind::text;
                v.text_ = parse_string();
                return v;
            }
            case 't':
            case 'f': {
                value v;
                v.kind_ = value::kind::boolean;
                if (consume_literal("true")) {
                    v.bool_ = true;
                } else if (consume_literal("false")) {
                    v.bool_ = false;
                } else {
                    fail("bad literal");
                }
                return v;
            }
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return value{};
            default: return parse_number();
        }
    }

    value parse_object() {
        expect('{');
        value v;
        v.kind_ = value::kind::object;
        skip_ws();
        if (peek() == '}') {
            ++at_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.members_.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++at_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    value parse_array() {
        expect('[');
        value v;
        v.kind_ = value::kind::array;
        skip_ws();
        if (peek() == ']') {
            ++at_;
            return v;
        }
        while (true) {
            v.items_.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++at_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (at_ >= text_.size()) fail("unterminated string");
            char ch = text_[at_++];
            if (ch == '"') return out;
            if (ch != '\\') {
                out.push_back(ch);
                continue;
            }
            if (at_ >= text_.size()) fail("unterminated escape");
            ch = text_[at_++];
            switch (ch) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (at_ + 4 > text_.size()) fail("short \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[at_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9') {
                            cp |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("bad \\u escape");
                        }
                    }
                    // UTF-8 encode (BMP only; the journal never writes
                    // surrogate pairs — it only escapes control characters).
                    if (cp < 0x80) {
                        out.push_back(static_cast<char>(cp));
                    } else if (cp < 0x800) {
                        out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                        out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                    } else {
                        out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                        out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                    }
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    value parse_number() {
        const std::size_t start = at_;
        if (peek() == '-') ++at_;
        while (at_ < text_.size() &&
               ((text_[at_] >= '0' && text_[at_] <= '9') || text_[at_] == '.' ||
                text_[at_] == 'e' || text_[at_] == 'E' || text_[at_] == '+' ||
                text_[at_] == '-')) {
            ++at_;
        }
        double parsed = 0.0;
        const auto res =
            std::from_chars(text_.data() + start, text_.data() + at_, parsed);
        if (res.ec != std::errc{} || res.ptr != text_.data() + at_ ||
            at_ == start) {
            fail("bad number");
        }
        value v;
        v.kind_ = value::kind::number;
        v.number_ = parsed;
        return v;
    }
};

value value::parse(std::string_view text) {
    return parser(text).parse_document();
}

std::string value::dump() const {
    switch (kind_) {
        case kind::null: return "null";
        case kind::boolean: return bool_ ? "true" : "false";
        case kind::number: return format_number(number_);
        case kind::text: return quote(text_);
        case kind::array: {
            std::string out = "[";
            for (std::size_t i = 0; i < items_.size(); ++i) {
                if (i) out.push_back(',');
                out += items_[i].dump();
            }
            out.push_back(']');
            return out;
        }
        case kind::object: {
            std::string out = "{";
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i) out.push_back(',');
                out += quote(members_[i].first);
                out.push_back(':');
                out += members_[i].second.dump();
            }
            out.push_back('}');
            return out;
        }
    }
    return "null";
}

}  // namespace json
}  // namespace mistral::obs
