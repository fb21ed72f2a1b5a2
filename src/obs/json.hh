/**
 * @file
 * Minimal JSON reader for telemetry round-trips: the exporters in
 * this module emit JSONL metrics, flight JSONL dumps and the Chrome
 * trace rendered from the flight stream, and the tests and obsview
 * must parse them back without an external dependency. Supports the full JSON value
 * grammar; numbers are doubles.
 */

#ifndef DECEPTICON_OBS_JSON_HH
#define DECEPTICON_OBS_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace decepticon::obs::json {

/** A parsed JSON value (tree-owning). */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;
};

/**
 * Parse one JSON document into out, replacing whatever it held.
 * Returns false (and fills *error) on malformed input; trailing
 * non-whitespace is an error.
 */
bool parse(const std::string &text, Value &out,
           std::string *error = nullptr);

} // namespace decepticon::obs::json

#endif // DECEPTICON_OBS_JSON_HH
