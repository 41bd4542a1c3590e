/**
 * @file
 * Minimal JSON parser + Chrome-trace validator.
 *
 * CI validates emitted traces without Python, so the checker is a
 * ~200-line recursive-descent parser over a tagged value model. It
 * handles exactly the JSON the exporter emits (objects, arrays,
 * strings with \-escapes, numbers, booleans, null) — not a general
 * spec-lawyer parser, but strict enough that malformed output fails.
 */

#ifndef PLD_OBS_JSON_H
#define PLD_OBS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pld {
namespace obs {
namespace json {

enum class Type
{
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
};

struct Value
{
    Type type = Type::Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    bool isNull() const { return type == Type::Null; }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *
    get(const std::string &key) const
    {
        if (type != Type::Obj)
            return nullptr;
        auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

/**
 * Parse @p text into @p out. Returns true on success; on failure
 * @p err describes the first problem with a byte offset.
 */
bool parse(const std::string &text, Value &out, std::string &err);

/**
 * Validate a parsed document as Chrome trace-event JSON: a top-level
 * "traceEvents" array whose entries have known "ph" values, every
 * "B" has a matching "E" on the same pid/tid (LIFO order), "X" events
 * carry a non-negative "dur", "s"/"f" flow events carry ids, and
 * every non-zero "parent_id" names a "span_id" in the same file.
 * Returns true when valid; @p err explains the first violation.
 */
bool checkChromeTrace(const Value &doc, std::string &err);

} // namespace json
} // namespace obs
} // namespace pld

#endif // PLD_OBS_JSON_H
