#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace streampim
{

bool
Json::asBool() const
{
    SPIM_ASSERT(kind() == Kind::Bool, "Json: not a bool");
    return std::get<bool>(v_);
}

double
Json::asNumber() const
{
    SPIM_ASSERT(kind() == Kind::Number, "Json: not a number");
    return std::get<double>(v_);
}

const std::string &
Json::asString() const
{
    SPIM_ASSERT(kind() == Kind::String, "Json: not a string");
    return std::get<std::string>(v_);
}

double
Json::asNumberOr(double fallback) const
{
    if (kind() == Kind::Null)
        return fallback;
    SPIM_ASSERT(kind() == Kind::Number, "Json: not a number or null");
    return std::get<double>(v_);
}

Json &
Json::push(Json v)
{
    SPIM_ASSERT(kind() == Kind::Null || kind() == Kind::Array,
                "Json: push on non-array");
    if (kind() == Kind::Null)
        v_.emplace<Array>();
    std::get<Array>(v_).push_back(std::move(v));
    return *this;
}

std::size_t
Json::size() const
{
    if (kind() == Kind::Array)
        return std::get<Array>(v_).size();
    if (kind() == Kind::Object)
        return std::get<Object>(v_).size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    SPIM_ASSERT(kind() == Kind::Array && i < size(),
                "Json: array index out of range");
    return std::get<Array>(v_)[i];
}

Json &
Json::operator[](const std::string &key)
{
    SPIM_ASSERT(kind() == Kind::Null || kind() == Kind::Object,
                "Json: member access on non-object");
    if (kind() == Kind::Null)
        v_.emplace<Object>();
    Object &obj = std::get<Object>(v_);
    for (auto &[k, v] : obj)
        if (k == key)
            return v;
    obj.emplace_back(key, Json());
    return obj.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[k, v] : members())
        if (k == key)
            return &v;
    return nullptr;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    static const Object none;
    return kind() == Kind::Object ? std::get<Object>(v_) : none;
}

namespace
{

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
formatNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; encode as null like most emitters.
        out += "null";
        return;
    }
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        out += buf;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(std::size_t(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += std::get<bool>(v_) ? "true" : "false";
        break;
      case Kind::Number:
        formatNumber(out, std::get<double>(v_));
        break;
      case Kind::String:
        escapeString(out, std::get<std::string>(v_));
        break;
      case Kind::Array: {
        const Array &arr = std::get<Array>(v_);
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Object &obj = std::get<Object>(v_);
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            escapeString(out, obj[i].first);
            out += indent > 0 ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

namespace
{

/** Recursive-descent JSON parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    parse(std::string *error)
    {
        Json v = value();
        skipWs();
        if (!failed_ && pos_ != text_.size())
            fail("trailing characters after document");
        if (failed_) {
            if (error)
                *error = error_;
            return Json();
        }
        if (error)
            error->clear();
        return v;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (!failed_) {
            failed_ = true;
            error_ = what + " at offset " + std::to_string(pos_);
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            pos_++;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            pos_++;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    Json
    value()
    {
        skipWs();
        if (failed_ || pos_ >= text_.size()) {
            fail("unexpected end of document");
            return Json();
        }
        char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return Json(string());
        if (c == 't' && literal("true"))
            return Json(true);
        if (c == 'f' && literal("false"))
            return Json(false);
        if (c == 'n' && literal("null"))
            return Json();
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return number();
        fail("unexpected character");
        return Json();
    }

    Json
    object()
    {
        Json obj = Json::object();
        pos_++; // '{'
        skipWs();
        if (consume('}'))
            return obj;
        while (!failed_) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                break;
            }
            std::string key = string();
            skipWs();
            if (!consume(':')) {
                fail("expected ':'");
                break;
            }
            obj[key] = value();
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            fail("expected ',' or '}'");
        }
        return obj;
    }

    Json
    array()
    {
        Json arr = Json::array();
        pos_++; // '['
        skipWs();
        if (consume(']'))
            return arr;
        while (!failed_) {
            arr.push(value());
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            fail("expected ',' or ']'");
        }
        return arr;
    }

    std::string
    string()
    {
        std::string out;
        pos_++; // '"'
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
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
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return out;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else {
                        fail("bad \\u escape");
                        return out;
                    }
                }
                // Reports only ever contain ASCII; encode the BMP
                // code point as UTF-8 without surrogate handling.
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xC0 | (code >> 6));
                    out += char(0x80 | (code & 0x3F));
                } else {
                    out += char(0xE0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3F));
                    out += char(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("unknown escape");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    number()
    {
        std::size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            pos_++;
        std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0') {
            fail("malformed number");
            return Json();
        }
        return Json(v);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace

Json
Json::parse(std::string_view text, std::string *error)
{
    return Parser(text).parse(error);
}

} // namespace streampim
