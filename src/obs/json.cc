#include "obs/json.hh"

#include <cctype>
#include <cstdlib>

namespace decepticon::obs::json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error{};

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char esc = text[pos++];
            switch (esc) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                const unsigned long cp =
                    std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16);
                pos += 4;
                // Telemetry names are ASCII; keep non-ASCII lossy-simple.
                out += cp < 0x80 ? static_cast<char>(cp) : '?';
                break;
            }
            default:
                return fail("bad escape");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    parseValue(Value &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == 'n') {
            out.kind = Value::Kind::Null;
            return literal("null", 4);
        }
        if (c == 't') {
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return parseString(out.string);
        }
        if (c == '[') {
            ++pos;
            out.kind = Value::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                Value item;
                if (!parseValue(item))
                    return false;
                out.array.push_back(std::move(item));
                if (consume(']'))
                    return true;
                if (!consume(','))
                    return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos;
            out.kind = Value::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Value item;
                if (!parseValue(item))
                    return false;
                out.object.emplace(std::move(key), std::move(item));
                if (consume('}'))
                    return true;
                if (!consume(','))
                    return fail("expected ',' or '}'");
            }
        }
        // Number.
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected value");
        pos += static_cast<std::size_t>(end - start);
        out.kind = Value::Kind::Number;
        out.number = v;
        return true;
    }
};

} // anonymous namespace

bool
parse(const std::string &text, Value &out, std::string *error)
{
    out = Value{};
    Parser p{text};
    if (!p.parseValue(out)) {
        if (error)
            *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "trailing characters at offset " +
                     std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace decepticon::obs::json
