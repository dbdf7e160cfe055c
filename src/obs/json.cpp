#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace bsis::obs {

void json_number(std::ostream& os, double v)
{
    if (std::isnan(v)) {
        os << "\"nan\"";
    } else if (std::isinf(v)) {
        os << (v > 0 ? "\"inf\"" : "\"-inf\"");
    } else {
        os << v;
    }
}

const JsonValue* JsonValue::find(std::string_view key) const
{
    for (const auto& [k, v] : object) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

bool json_real(const JsonValue& value, double& out)
{
    if (value.kind == JsonValue::Kind::number) {
        out = value.number;
        return true;
    }
    if (value.kind != JsonValue::Kind::string) {
        return false;
    }
    if (value.string == "nan") {
        out = std::numeric_limits<double>::quiet_NaN();
    } else if (value.string == "inf") {
        out = std::numeric_limits<double>::infinity();
    } else if (value.string == "-inf") {
        out = -std::numeric_limits<double>::infinity();
    } else {
        return false;
    }
    return true;
}

namespace {

class JsonReader {
public:
    explicit JsonReader(std::string_view text) : text_(text) {}

    bool parse(JsonValue& out)
    {
        if (!parse_value(out)) {
            return false;
        }
        skip_ws();
        return pos_ == text_.size();
    }

private:
    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool consume(char c)
    {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    /// The four hex digits of a `\u` escape.
    bool parse_hex4(unsigned& out)
    {
        const char* first = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(first, first + 4, out, 16).ptr != first + 4) {
            return false;
        }
        pos_ += 4;
        return true;
    }

    /// A `\uXXXX` escape (a surrogate pair takes two) appended as UTF-8.
    bool parse_unicode(std::string& out)
    {
        unsigned cp = 0;
        if (!parse_hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF)) {
            return false;
        }
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            unsigned low = 0;
            if (text_.substr(pos_, 2) != "\\u") {
                return false;
            }
            pos_ += 2;
            if (!parse_hex4(low) || low < 0xDC00 || low > 0xDFFF) {
                return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return true;
    }

    bool parse_string(std::string& out)
    {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            return false;
        }
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            const char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                return false;
            }
            switch (text_[pos_++]) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u':
                if (!parse_unicode(out)) {
                    return false;
                }
                break;
            default:
                return false;
            }
        }
        if (pos_ >= text_.size()) {
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    bool parse_number(double& out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) {
            return false;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        out = std::strtod(token.c_str(), &end);
        return end == token.c_str() + token.size();
    }

    bool parse_value(JsonValue& out)
    {
        skip_ws();
        if (pos_ >= text_.size()) {
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::object;
            if (consume('}')) {
                return true;
            }
            while (true) {
                std::string key;
                JsonValue value;
                if (!parse_string(key) || !consume(':') ||
                    !parse_value(value)) {
                    return false;
                }
                out.object.emplace_back(std::move(key), std::move(value));
                if (consume(',')) {
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::array;
            if (consume(']')) {
                return true;
            }
            while (true) {
                JsonValue value;
                if (!parse_value(value)) {
                    return false;
                }
                out.array.push_back(std::move(value));
                if (consume(',')) {
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::string;
            return parse_string(out.string);
        }
        if (text_.substr(pos_, 4) == "true") {
            out.kind = JsonValue::Kind::boolean;
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (text_.substr(pos_, 5) == "false") {
            out.kind = JsonValue::Kind::boolean;
            pos_ += 5;
            return true;
        }
        if (text_.substr(pos_, 4) == "null") {
            pos_ += 4;
            return true;
        }
        out.kind = JsonValue::Kind::number;
        return parse_number(out.number);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out)
{
    JsonValue value;
    if (!JsonReader(text).parse(value)) {
        return false;
    }
    out = std::move(value);
    return true;
}

}  // namespace bsis::obs
