#include "obs/json.h"

#include <cctype>
#include <cstdlib>
#include <set>

namespace pld {
namespace obs {
namespace json {

namespace {

class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : text(text), err(err)
    {
    }

    bool
    run(Value &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos != text.size())
            return fail("trailing content");
        return true;
    }

  private:
    const std::string &text;
    std::string &err;
    size_t pos = 0;

    bool
    fail(const std::string &what)
    {
        err = what + " at offset " + std::to_string(pos);
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
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, Value &out, Type type, bool bval)
    {
        size_t n = std::string(word).size();
        if (text.compare(pos, n, word) != 0)
            return fail("bad literal");
        pos += n;
        out.type = type;
        out.b = bval;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("truncated escape");
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned v = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos++];
                        v <<= 4;
                        if (h >= '0' && h <= '9')
                            v |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            v |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            v |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // The exporter only emits \u00xx control codes;
                    // encode the general case as UTF-8 anyway.
                    if (v < 0x80) {
                        out += char(v);
                    } else if (v < 0x800) {
                        out += char(0xC0 | (v >> 6));
                        out += char(0x80 | (v & 0x3F));
                    } else {
                        out += char(0xE0 | (v >> 12));
                        out += char(0x80 | ((v >> 6) & 0x3F));
                        out += char(0x80 | (v & 0x3F));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    number(Value &out)
    {
        size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool digits = false;
        while (pos < text.size()) {
            char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                digits = true;
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' ||
                       c == '+') {
                ++pos;
            } else {
                break;
            }
        }
        if (!digits)
            return fail("bad number");
        out.type = Type::Num;
        out.num = std::strtod(text.substr(start, pos - start).c_str(),
                              nullptr);
        return true;
    }

    bool
    value(Value &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.type = Type::Str;
            return string(out.str);
        }
        if (c == 't')
            return literal("true", out, Type::Bool, true);
        if (c == 'f')
            return literal("false", out, Type::Bool, false);
        if (c == 'n')
            return literal("null", out, Type::Null, false);
        return number(out);
    }

    bool
    object(Value &out)
    {
        consume('{');
        out.type = Type::Obj;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            Value v;
            if (!value(v))
                return false;
            out.obj.emplace(std::move(key), std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(Value &out)
    {
        consume('[');
        out.type = Type::Arr;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            Value v;
            if (!value(v))
                return false;
            out.arr.push_back(std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &err)
{
    return Parser(text, err).run(out);
}

bool
checkChromeTrace(const Value &doc, std::string &err)
{
    const Value *events = doc.get("traceEvents");
    if (!events || events->type != Type::Arr) {
        err = "missing traceEvents array";
        return false;
    }
    // Per-(pid,tid) stack of open "B" events.
    std::map<std::pair<double, double>, std::vector<std::string>> open;
    // Logical parent links resolve after the walk: a parent may be
    // written after its child (spans are grouped by thread).
    std::set<double> span_ids;
    std::vector<std::pair<std::string, double>> parents;
    size_t i = 0;
    for (const Value &e : events->arr) {
        std::string at = "event " + std::to_string(i++);
        if (e.type != Type::Obj) {
            err = at + ": not an object";
            return false;
        }
        const Value *ph = e.get("ph");
        if (!ph || ph->type != Type::Str || ph->str.size() != 1) {
            err = at + ": missing ph";
            return false;
        }
        const Value *name = e.get("name");
        if (!name || name->type != Type::Str) {
            err = at + ": missing name";
            return false;
        }
        const Value *pid = e.get("pid");
        const Value *tid = e.get("tid");
        if (!pid || pid->type != Type::Num || !tid ||
            tid->type != Type::Num) {
            err = at + ": missing pid/tid";
            return false;
        }
        const Value *sid = e.get("span_id");
        const Value *par = e.get("parent_id");
        if ((sid && sid->type != Type::Num) ||
            (par && par->type != Type::Num)) {
            err = at + ": non-numeric span_id/parent_id";
            return false;
        }
        if (sid)
            span_ids.insert(sid->num);
        if (par && par->num != 0)
            parents.emplace_back(at, par->num);
        auto key = std::make_pair(pid->num, tid->num);
        char p = ph->str[0];
        const Value *ts = e.get("ts");
        switch (p) {
          case 'M':
            break;
          case 'B':
            if (!ts || ts->type != Type::Num) {
                err = at + ": B without ts";
                return false;
            }
            open[key].push_back(name->str);
            break;
          case 'E': {
            auto &stk = open[key];
            if (stk.empty()) {
                err = at + ": E without matching B";
                return false;
            }
            if (stk.back() != name->str) {
                err = at + ": E '" + name->str +
                      "' does not match open B '" + stk.back() + "'";
                return false;
            }
            stk.pop_back();
            break;
          }
          case 'X': {
            const Value *dur = e.get("dur");
            if (!ts || ts->type != Type::Num || !dur ||
                dur->type != Type::Num || dur->num < 0) {
                err = at + ": X without ts/dur or negative dur";
                return false;
            }
            break;
          }
          case 'i': {
            const Value *s = e.get("s");
            if (!ts || ts->type != Type::Num || !s ||
                s->type != Type::Str) {
                err = at + ": i without ts/s";
                return false;
            }
            break;
          }
          case 's':
          case 'f': {
            const Value *id = e.get("id");
            if (!ts || ts->type != Type::Num || !id ||
                id->type != Type::Num) {
                err = at + ": flow event without ts/id";
                return false;
            }
            break;
          }
          default:
            err = at + ": unknown ph '" + ph->str + "'";
            return false;
        }
    }
    for (const auto &[key, stk] : open) {
        if (!stk.empty()) {
            err = "unclosed B event '" + stk.back() + "'";
            return false;
        }
    }
    for (const auto &[at, parent] : parents) {
        if (!span_ids.count(parent)) {
            err = at + ": parent_id names no span in the file";
            return false;
        }
    }
    return true;
}

} // namespace json
} // namespace obs
} // namespace pld
