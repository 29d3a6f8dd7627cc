/**
 * @file
 * A minimal JSON value: build, serialize, parse.
 *
 * The bench report machinery (SweepRunner) emits machine-readable
 * BENCH_*.json files next to the human tables; plotting scripts and
 * the unit tests read them back. The repo deliberately carries no
 * third-party JSON dependency, so this implements the small subset
 * the reports need: null/bool/number/string/array/object, with
 * object keys kept in insertion order so reports diff cleanly.
 */

#ifndef STREAMPIM_COMMON_JSON_HH_
#define STREAMPIM_COMMON_JSON_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace streampim
{

/** A JSON value of any kind. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : v_(std::in_place_type<bool>, b) {}
    Json(double n) : v_(std::in_place_type<double>, n) {}
    Json(int n) : Json(double(n)) {}
    Json(unsigned n) : Json(double(n)) {}
    Json(std::int64_t n) : Json(double(n)) {}
    Json(std::uint64_t n) : Json(double(n)) {}
    Json(const char *s) : v_(std::in_place_type<std::string>, s) {}
    Json(std::string s)
        : v_(std::in_place_type<std::string>, std::move(s))
    {}

    static Json
    array()
    {
        Json j;
        j.v_.emplace<Array>();
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.v_.emplace<Object>();
        return j;
    }

    Kind kind() const { return Kind(v_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isObject() const { return kind() == Kind::Object; }

    /** Value accessors; panic on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /**
     * Number accessor tolerating null: non-finite doubles serialize
     * as null (JSON has no NaN/Inf tokens), so metric consumers use
     * this to read round-tripped values without special-casing.
     * Panics on any kind other than Number or Null.
     */
    double asNumberOr(double fallback) const;

    /** Array: append an element (converts this to an array). */
    Json &push(Json v);
    /** Array/object: element count. */
    std::size_t size() const;
    /** Array: element access; panics out of range. */
    const Json &at(std::size_t i) const;

    /**
     * Object: fetch-or-insert a member (converts this to an
     * object). Keys keep insertion order.
     */
    Json &operator[](const std::string &key);
    /** Object: lookup; nullptr when absent. */
    const Json *find(const std::string &key) const;
    /** Object: members in insertion order (none for a non-object). */
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Serialize; @p indent > 0 pretty-prints with that many spaces
     * per level, 0 emits a single line.
     */
    std::string dump(int indent = 2) const;

    /**
     * Parse a JSON document. Returns a null value and fills
     * @p error (when given) on malformed input; a valid document
     * that is literally `null` parses as a null value with an empty
     * error.
     */
    static Json parse(std::string_view text,
                      std::string *error = nullptr);

  private:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    void dumpTo(std::string &out, int indent, int depth) const;

    /**
     * One alternative per Kind, in Kind's order, so a value stores
     * only its own kind's data: reports and the benchmark harness
     * keep many small objects.
     */
    std::variant<std::monostate, bool, double, std::string, Array,
                 Object>
        v_;
};

} // namespace streampim

#endif // STREAMPIM_COMMON_JSON_HH_
