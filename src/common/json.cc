#include "common/json.hh"

#include <cstdio>
#include <cstring>

namespace dmdc
{

namespace
{

/**
 * Deepest array/object nesting parseJson() accepts. The parser
 * recurses once per level, so without a bound a hostile document
 * (`[[[...]]]`) overflows the stack; every document the system writes
 * nests only a few levels.
 */
constexpr unsigned kMaxJsonDepth = 256;

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &err)
        : text_(text), err_(err)
    {
    }

    bool
    parse(JsonValue &out)
    {
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content after JSON document");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        err_ = msg + " (at byte " + std::to_string(pos_) + ")";
        return false;
    }

    /** The bytes std::isspace() accepts in the C locale. */
    static bool
    isWs(char c)
    {
        return c == ' ' || c == '\n' || c == '\t' || c == '\r' ||
               c == '\v' || c == '\f';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() && isWs(text_[pos_]))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxJsonDepth)
                return fail("nesting deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels");
            ++depth_;
            const bool ok = c == '{' ? object(out) : array(out);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        }
        if (c == 't' || c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = (c == 't');
            return literal(c == 't' ? "true" : "false");
        }
        if (c == 'n' && text_.compare(pos_, 3, "nan") != 0) {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        return number(out);
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            auto &field = out.fields.emplace_back();
            if (!string(field.first))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            if (!value(field.second))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value(out.items.emplace_back()))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (pos_ < text_.size()) {
            const std::size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\' &&
                   static_cast<unsigned char>(text_[pos_]) >= 0x20)
                ++pos_;
            out.append(text_, run, pos_ - run);
            if (pos_ >= text_.size())
                break;
            if (static_cast<unsigned char>(text_[pos_]) < 0x20)
                return fail("raw control character in string");
            if (text_[pos_++] == '"')
                return true;
            if (pos_ >= text_.size())
                return fail("unterminated string escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'n':  out.push_back('\n'); break;
              case 'r':  out.push_back('\r'); break;
              case 't':  out.push_back('\t'); break;
              case 'u': {
                // Decode the BMP code point to UTF-8; journals never
                // emit \u escapes but protocol peers legitimately may.
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("malformed \\u escape");
                }
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default:
                return fail("unknown string escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    digitAt(std::size_t at) const
    {
        return at < text_.size() && text_[at] >= '0' && text_[at] <= '9';
    }

    /** Advance past a run of digits; false when there is none. */
    bool
    digits()
    {
        if (!digitAt(pos_))
            return false;
        do
            ++pos_;
        while (digitAt(pos_));
        return true;
    }

    /**
     * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or one of the
     * four non-finite tokens, in one pass over the bytes.
     */
    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        // "%.17g" spells non-finite doubles nan, -nan, inf and -inf;
        // accept exactly those four (json.hh).
        if (text_.compare(pos_, 3, "nan") == 0 ||
            text_.compare(pos_, 3, "inf") == 0) {
            pos_ += 3;
        } else {
            // JSON allows only '-' before a number; no writer emits
            // '+'.
            if (pos_ < text_.size() && text_[pos_] == '+')
                return fail("a number may not start with '+'");
            if (!digitAt(pos_))
                return fail(pos_ == start ? "expected a JSON value"
                                          : "expected a digit after '-'");
            if (text_[pos_] == '0')
                ++pos_; // "0" stands alone: "01" leaves a stray '1'
            else
                digits();
            if (pos_ < text_.size() && text_[pos_] == '.') {
                ++pos_;
                if (!digits())
                    return fail("expected a digit after '.'");
            }
            if (pos_ < text_.size() &&
                (text_[pos_] == 'e' || text_[pos_] == 'E')) {
                ++pos_;
                if (pos_ < text_.size() &&
                    (text_[pos_] == '+' || text_[pos_] == '-'))
                    ++pos_;
                if (!digits())
                    return fail("expected a digit in the exponent");
            }
        }
        out.kind = JsonValue::Kind::Number;
        out.text.assign(text_, start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::string &err_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0; ///< arrays/objects open at pos_
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    out = JsonValue{};
    JsonParser parser(text, err);
    return parser.parse(out);
}

std::string
jsonEscapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
doubleToken(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace dmdc
