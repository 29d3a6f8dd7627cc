#include "common/json.hh"

#include <cmath>
#include <cstdio>

#include "common/log.hh"

namespace streampim
{

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

} // namespace streampim
