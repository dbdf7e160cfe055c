// Shared JSON support for every obs emitter and reader.
//
// The metrics snapshot, the Chrome trace, the flight-recorder sidecars,
// and the event log all hand-write small JSON documents; they used to
// interpolate names raw (or each carried a private escaper), so a metric
// or span name containing a quote, backslash, or control character
// produced an invalid document. Every emitter now routes strings through
// this one escaper, every number that may be non-finite through
// json_number, and every reader (metrics snapshots, Chrome traces,
// flight-recorder sidecars) through parse_json.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsis::obs {

/// Appends `s` to `os` with JSON string escaping applied (quotes,
/// backslashes, and control characters; the surrounding quotes are the
/// caller's).
inline void json_escape(std::ostream& os, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\r':
            os << "\\r";
            break;
        case '\t':
            os << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

/// Appends `s` as a complete JSON string token (quotes included).
inline void json_quote(std::ostream& os, std::string_view s)
{
    os << '"';
    json_escape(os, s);
    os << '"';
}

/// Appends `v` as a JSON number at the stream's precision. JSON has no
/// NaN or infinity literals, so non-finite values are written as the
/// strings "nan", "inf" and "-inf"; json_real reads them back.
void json_number(std::ostream& os, double v);

/// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
    enum class Kind { null, boolean, number, string, array, object };
    Kind kind = Kind::null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// The first member named `key`, or nullptr (also for non-objects).
    const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document. Every escape is decoded (`\uXXXX`
/// to UTF-8, surrogate pairs included) and an unknown one is an error.
/// Returns false on malformed input or trailing garbage.
bool parse_json(std::string_view text, JsonValue& out);

/// Inverse of json_number: a number, or one of the strings "nan", "inf"
/// and "-inf". Returns false for any other value.
bool json_real(const JsonValue& value, double& out);

/// A number that is an integer representable in `Int`. Returns false for
/// anything else (fractions, out-of-range values, non-numbers), so a
/// malformed document can never reach an out-of-range conversion.
template <typename Int>
bool json_integer(const JsonValue& value, Int& out)
{
    const double v = value.number;
    if (value.kind != JsonValue::Kind::number || v != std::trunc(v) ||
        v < static_cast<double>(std::numeric_limits<Int>::min()) ||
        v >= static_cast<double>(std::numeric_limits<Int>::max()) + 1.0) {
        return false;
    }
    out = static_cast<Int>(v);
    return true;
}

}  // namespace bsis::obs
