#include "journal/json.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace uvmasync
{

std::string
hexDouble(double value)
{
    return strfmt("%a", value);
}

bool
parseHexDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

std::string
hexU64(std::uint64_t value)
{
    return strfmt("%016" PRIx64, value);
}

bool
parseHexU64(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(digit);
    }
    out = v;
    return true;
}

// --- writer -------------------------------------------------------

void
JsonWriter::comma()
{
    if (!first_.empty()) {
        if (!first_.back())
            out_ += ',';
        first_.back() = 0;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    first_.push_back(1);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    UVMASYNC_ASSERT(!first_.empty(), "endObject outside a scope");
    out_ += '}';
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    first_.push_back(1);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    UVMASYNC_ASSERT(!first_.empty(), "endArray outside a scope");
    out_ += ']';
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    // The value that follows must not emit another comma.
    if (!first_.empty())
        first_.back() = 1;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    comma();
    out_ += strfmt("%" PRIu64, v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::hex(double v)
{
    return value(hexDouble(v));
}

// --- reader -------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &member : members) {
        if (member.first == name)
            return &member.second;
    }
    return nullptr;
}

bool
JsonValue::asUint(std::uint64_t &out) const
{
    if (kind != Kind::Number || text.empty())
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
JsonValue::asHex(double &out) const
{
    if (kind != Kind::String)
        return false;
    return parseHexDouble(text, out);
}

namespace
{

/** Recursive-descent parser over a complete in-memory document. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing garbage");
        return true;
    }

  private:
    bool
    fail(const char *why)
    {
        error_ = strfmt("%s at byte %zu", why, pos_);
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The journal only writes \u00xx control escapes.
                if (code > 0xff)
                    return fail("unsupported \\u escape");
                out += static_cast<char>(code);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string name;
                if (!parseString(name))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.members.emplace_back(std::move(name),
                                         std::move(member));
                skipSpace();
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
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JsonValue item;
                if (!parseValue(item, depth + 1))
                    return false;
                out.items.push_back(std::move(item));
                skipSpace();
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
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (literal("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            out.kind = JsonValue::Kind::Number;
            std::size_t start = pos_;
            while (pos_ < text_.size() &&
                   (std::isdigit(
                        static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '-' || text_[pos_] == '+' ||
                    text_[pos_] == '.' || text_[pos_] == 'e' ||
                    text_[pos_] == 'E'))
                ++pos_;
            out.text = text_.substr(start, pos_ - start);
            return true;
        }
        return fail("unexpected character");
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    Parser parser(text, error);
    return parser.parse(out);
}

} // namespace uvmasync
