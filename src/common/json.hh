/**
 * @file
 * The project's one JSON implementation: a value tree, a strict
 * parser, and the two token writers every emitter shares.
 *
 * Journals, run-cache payloads, trace files and bench_compare all
 * read through parseJson(). Two properties matter more than
 * generality:
 *
 *  - numbers keep their raw source token, so a parsed document can be
 *    re-serialized byte-identically;
 *  - parsing is strict (no trailing content, no unknown escapes), so
 *    a torn or hand-mangled document fails loudly instead of yielding
 *    a half-read record.
 *
 * Non-finite numbers: doubleToken() spells them the way "%.17g" does,
 * so the parser accepts exactly the four tokens `nan`, `-nan`, `inf`
 * and `-inf` as Number values (raw text kept). Anything else that
 * merely starts like one (`nan1`, `infinity`, `+inf`) is still a
 * syntax error. Readers that need a finite value must check for it.
 *
 * Writing stays with the callers — each emitter owns its exact byte
 * layout — but numbers go through doubleToken() and strings through
 * jsonEscapeString(), so every emitter spells them the same way.
 */

#ifndef DMDC_COMMON_JSON_HH
#define DMDC_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmdc
{

/** One JSON value; object fields keep their source order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; ///< string value (unescaped) or raw number token
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    find(std::string_view key) const
    {
        for (const auto &f : fields) {
            if (f.first == key)
                return &f.second;
        }
        return nullptr;
    }
};

/** Parse @p text into @p out. False + @p err on any syntax error
 *  (including trailing content after the document). */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &err);

/**
 * Escape @p s for embedding in a JSON string literal, reversibly:
 * quotes and backslashes are backslash-escaped, control characters
 * become \n/\r/\t/\u00XX.
 */
std::string jsonEscapeString(const std::string &s);

/**
 * "%.17g" spelling of @p v: 17 significant digits, enough to
 * round-trip an IEEE double exactly. Journals, cache keys and cache
 * payloads all use it, so their bytes agree.
 */
std::string doubleToken(double v);

} // namespace dmdc

#endif // DMDC_COMMON_JSON_HH
