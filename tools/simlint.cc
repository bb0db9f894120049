/**
 * @file
 * simlint: project-native static analysis for the simulator sources.
 *
 * The repository's core guarantees — bit-identical sweeps for any
 * thread count, an allocation-free steady-state window, and golden-run
 * reproducibility — are enforced dynamically by the golden harness and
 * the property fuzzer, but a careless edit only trips those long after
 * it lands. simlint makes the underlying coding rules machine-checked
 * at lint time, with no compiler dependency: a lightweight C++
 * tokenizer walks the tree and reports named, suppressible
 * diagnostics.
 *
 * Rule families (see docs/TESTING.md for the full table):
 *   C0xx  concurrency   lock discipline: every member of a
 *                       mutex-owning class is CSIM_GUARDED_BY-annotated
 *                       (C001), condition variables wait with a
 *                       predicate (C002), std::thread only in blessed
 *                       launcher files (C003), the declared
 *                       CSIM_ACQUIRED_BEFORE order is a DAG (C004),
 *                       and scoped guards only lock declared mutexes
 *                       (C005)
 *   D0xx  determinism   banned sources of run-to-run variation
 *   H0xx  hot path      allocation / growth / string / throw bans in
 *                       files annotated `// simlint: hot-path`
 *   F0xx  field lists   every data member of a type that defines
 *                       fields() -- the one list checkpoints, reports
 *                       and the determinism comparator walk -- is
 *                       visited by it, not just named in a bound or a
 *                       check (F001)
 *   S0xx  snapshot      every Processor::Snapshot member is applied by
 *                       Processor::restore() (S004)
 *   T0xx  observation   observer hooks in hot-path files must sit
 *                       behind the CSIM_OBSERVE compile-time gate
 *   L0xx  lint          malformed simlint directives
 *
 * Annotations (line comments anywhere in a file):
 *   // simlint: hot-path          whole file is steady-state code
 *   // simlint: cold-begin        construction/reconfig region where
 *   // simlint: cold-end          H-rules do not apply
 *   // simlint: thread-launcher   file legitimately owns std::thread
 *                                 workers (C003 does not apply)
 *   // simlint-ignore(D002): why  suppress rule(s) on this line, or on
 *                                 the next line when the comment stands
 *                                 alone; the reason is mandatory
 *
 * Exit status: 0 when no diagnostics, 1 when any fired, 2 on usage or
 * I/O errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct RuleInfo {
    const char *id;
    const char *title;
    const char *hint;
};

const RuleInfo ruleTable[] = {
    {"C001", "unguarded member of a mutex-owning class",
     "annotate the member CSIM_GUARDED_BY(the mutex), or carry a "
     "reasoned simlint-ignore when it is immutable or thread-confined "
     "(src/common/thread_annotations.hh)"},
    {"C002", "condition-variable wait without a predicate",
     "use wait(lock, predicate); an unconditional wait() invites lost "
     "wakeups and spurious-wakeup bugs"},
    {"C003", "std::thread outside a blessed launcher file",
     "route work through an existing pool (scheduler, sweep drivers), "
     "or annotate the file `// simlint: thread-launcher -- why` if it "
     "legitimately owns workers"},
    {"C004", "lock-order cycle in CSIM_ACQUIRED_BEFORE declarations",
     "the declared acquisition order must form a DAG; break the cycle "
     "or fix the wrong declaration"},
    {"C005", "scoped guard over an undeclared mutex",
     "the guard's argument must name a clustersim::Mutex or std::mutex "
     "declared in the scanned tree, so every lock is reachable from "
     "the annotated set"},
    {"D001", "banned random source",
     "use the project PCG in src/common/random.* (seeded, deterministic)"},
    {"D002", "wall-clock read",
     "derive timing from simulated cycles; wall-clock fields must stay "
     "out of deterministic reports (suppress with a reason if "
     "reporting-only)"},
    {"D003", "unordered container",
     "iteration order is unspecified and can feed steering/report "
     "order; use std::map, std::set, or a sorted vector"},
    {"D004", "pointer-keyed ordered container",
     "ordering by address varies run to run; key by a stable id "
     "(InstSeqNum, cluster index)"},
    {"D005", "pointer-to-integer cast",
     "an address is not a stable value across runs; use a stable id"},
    {"H001", "heap allocation in hot path",
     "allocate at construction (cold region) or reuse a pooled buffer"},
    {"H002", "unreserved growth in hot path",
     "receiver must be a SmallVec or have a visible reserve()/resize() "
     "call; reserve in the constructor"},
    {"H003", "std::string construction in hot path",
     "string temporaries allocate; format only in error/report paths"},
    {"H004", "throw/try in hot path",
     "use fatal()/CSIM_ASSERT for fatal conditions; exceptions are "
     "banned on the steady-state path"},
    {"F001", "data member missing from fields()",
     "name the member in its class's fields() (src/core/snapshot_io.hh "
     "lists the visitor operations), or carry a reasoned "
     "simlint-ignore(F001) when it is construction-time identity"},
    {"S004", "snapshot field missing from restore path",
     "every Processor::Snapshot member must be applied by "
     "Processor::restore(), or restored runs diverge from "
     "straight-line warmup"},
    {"T001", "ungated observer access in hot path",
     "route the hook through CSIM_OBSERVE so a default build compiles "
     "it out; naming an observer, its scope, the trace sink or the "
     "invariant checker belongs in cold code"},
    {"L001", "malformed simlint directive",
     "suppressions are `// simlint-ignore(ID[,ID...]): reason` with a "
     "non-empty reason"},
};

const RuleInfo *
findRule(const std::string &id)
{
    for (const RuleInfo &r : ruleTable)
        if (id == r.id)
            return &r;
    return nullptr;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Tok {
    enum Kind { Ident, Number, String, Punct };
    Kind kind;
    std::string text;
    int line;
};

struct Comment {
    std::string text;   ///< content without the // or /* */ markers
    int line;           ///< line the comment starts on
    bool ownLine;       ///< no code token earlier on the same line
};

struct LexedFile {
    std::vector<Tok> toks;
    std::vector<Comment> comments;
};

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexedFile
lex(const std::string &src)
{
    LexedFile out;
    int line = 1;
    int lastCodeLine = -1;
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto newlineCount = [&](const std::string &s) {
        return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
    };

    while (i < n) {
        char c = src[i];
        if (c == '\n') {
            line++;
            i++;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            i++;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t j = src.find('\n', i);
            if (j == std::string::npos)
                j = n;
            out.comments.push_back({src.substr(i + 2, j - i - 2), line,
                                    lastCodeLine != line});
            i = j;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            std::size_t j = src.find("*/", i + 2);
            if (j == std::string::npos)
                j = n;
            std::string body = src.substr(i + 2, j - i - 2);
            out.comments.push_back({body, line, lastCodeLine != line});
            line += newlineCount(body);
            i = (j == n) ? n : j + 2;
            continue;
        }
        if (c == '"') {
            // Raw strings: the previous token was R (glued, e.g. R"( ).
            bool raw = !out.toks.empty() &&
                out.toks.back().kind == Tok::Ident &&
                out.toks.back().text == "R";
            std::size_t j;
            if (raw) {
                std::size_t d = src.find('(', i);
                std::string delim = ")" +
                    src.substr(i + 1, d - i - 1) + "\"";
                j = src.find(delim, d);
                j = (j == std::string::npos) ? n
                                             : j + delim.size() - 1;
            } else {
                j = i + 1;
                while (j < n && src[j] != '"') {
                    if (src[j] == '\\')
                        j++;
                    j++;
                }
            }
            std::string body = src.substr(i, std::min(j + 1, n) - i);
            line += newlineCount(body);
            out.toks.push_back({Tok::String, "\"\"", line});
            lastCodeLine = line;
            i = std::min(j + 1, n);
            continue;
        }
        if (c == '\'') {
            std::size_t j = i + 1;
            while (j < n && src[j] != '\'') {
                if (src[j] == '\\')
                    j++;
                j++;
            }
            out.toks.push_back({Tok::String, "''", line});
            lastCodeLine = line;
            i = std::min(j + 1, n);
            continue;
        }
        if (isIdentStart(c)) {
            std::size_t j = i;
            while (j < n && isIdentChar(src[j]))
                j++;
            out.toks.push_back({Tok::Ident, src.substr(i, j - i), line});
            lastCodeLine = line;
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < n && (isIdentChar(src[j]) || src[j] == '.' ||
                             ((src[j] == '+' || src[j] == '-') && j > i &&
                              (src[j - 1] == 'e' || src[j - 1] == 'E'))))
                j++;
            out.toks.push_back({Tok::Number, src.substr(i, j - i), line});
            lastCodeLine = line;
            i = j;
            continue;
        }
        // All punctuation as single characters; `>>` lexes as two `>`
        // so template-argument scanning stays simple.
        out.toks.push_back({Tok::Punct, std::string(1, c), line});
        lastCodeLine = line;
        i++;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Per-file scan state: annotations, suppressions, diagnostics
// ---------------------------------------------------------------------------

struct Diag {
    std::string file;
    int line;
    std::string rule;
    std::string msg;
};

struct FileScan {
    std::string path;        ///< as given on the command line
    LexedFile lx;
    bool hotPath = false;
    bool threadLauncher = false;   ///< C003 blessing
    std::vector<std::pair<int, int>> coldRanges;
    /** line -> rule ids suppressed on that line ("*" = all). */
    std::map<int, std::set<std::string>> suppress;
    std::vector<Diag> directiveDiags;  ///< L001 findings
};

std::string
trim(const std::string &s)
{
    std::size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    std::size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

void
parseDirectives(FileScan &f)
{
    // An own-line suppression applies to the next line that holds code,
    // so a directive may wrap across several comment lines.
    std::vector<int> codeLines;
    codeLines.reserve(f.lx.toks.size());
    for (const Tok &t : f.lx.toks)
        if (codeLines.empty() || codeLines.back() != t.line)
            codeLines.push_back(t.line);
    std::sort(codeLines.begin(), codeLines.end());
    auto nextCodeLine = [&](int after) {
        auto it = std::upper_bound(codeLines.begin(), codeLines.end(),
                                   after);
        return it == codeLines.end() ? after + 1 : *it;
    };

    int coldOpen = -1;
    for (const Comment &c : f.lx.comments) {
        std::string body = trim(c.text);
        if (body.rfind("simlint:", 0) == 0) {
            // Only the first word is the annotation; anything after it
            // is free-form commentary (e.g. "cold-begin -- why").
            std::string what = trim(body.substr(8));
            std::size_t sp = what.find_first_of(" \t");
            if (sp != std::string::npos)
                what = what.substr(0, sp);
            if (what == "hot-path") {
                f.hotPath = true;
            } else if (what == "thread-launcher") {
                f.threadLauncher = true;
            } else if (what == "cold-begin") {
                if (coldOpen >= 0)
                    f.directiveDiags.push_back(
                        {f.path, c.line, "L001",
                         "cold-begin while a cold region is already "
                         "open"});
                coldOpen = c.line;
            } else if (what == "cold-end") {
                if (coldOpen < 0) {
                    f.directiveDiags.push_back(
                        {f.path, c.line, "L001",
                         "cold-end without a matching cold-begin"});
                } else {
                    f.coldRanges.push_back({coldOpen, c.line});
                    coldOpen = -1;
                }
            } else {
                f.directiveDiags.push_back(
                    {f.path, c.line, "L001",
                     "unknown simlint annotation '" + what + "'"});
            }
            continue;
        }
        std::size_t at = body.find("simlint-ignore");
        if (at == std::string::npos)
            continue;
        std::size_t open = body.find('(', at);
        std::size_t close = body.find(')', at);
        if (open == std::string::npos || close == std::string::npos ||
            close < open) {
            f.directiveDiags.push_back(
                {f.path, c.line, "L001",
                 "simlint-ignore needs a (RULE) list"});
            continue;
        }
        std::size_t colon = body.find(':', close);
        std::string reason = colon == std::string::npos
            ? ""
            : trim(body.substr(colon + 1));
        if (reason.empty()) {
            f.directiveDiags.push_back(
                {f.path, c.line, "L001",
                 "simlint-ignore suppression has no reason"});
            continue;
        }
        int target = c.ownLine ? nextCodeLine(c.line) : c.line;
        std::stringstream ids(body.substr(open + 1, close - open - 1));
        std::string id;
        bool any = false;
        while (std::getline(ids, id, ',')) {
            id = trim(id);
            if (id.empty())
                continue;
            if (id != "*" && !findRule(id)) {
                f.directiveDiags.push_back(
                    {f.path, c.line, "L001",
                     "unknown rule id '" + id + "' in suppression"});
                continue;
            }
            f.suppress[target].insert(id);
            any = true;
        }
        if (!any)
            f.directiveDiags.push_back(
                {f.path, c.line, "L001",
                 "simlint-ignore lists no rule ids"});
    }
    if (coldOpen >= 0)
        f.directiveDiags.push_back(
            {f.path, coldOpen, "L001",
             "cold-begin never closed by cold-end"});
}

bool
inCold(const FileScan &f, int line)
{
    for (const auto &[a, b] : f.coldRanges)
        if (line >= a && line <= b)
            return true;
    return false;
}

bool
suppressed(const FileScan &f, int line, const std::string &rule)
{
    auto it = f.suppress.find(line);
    if (it == f.suppress.end())
        return false;
    return it->second.count(rule) || it->second.count("*");
}

// ---------------------------------------------------------------------------
// Scan helpers
// ---------------------------------------------------------------------------

bool
tokIs(const std::vector<Tok> &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].text == s;
}

bool
prevIs(const std::vector<Tok> &t, std::size_t i, const char *s)
{
    return i > 0 && t[i - 1].text == s;
}

/**
 * The first template argument of `name<...>` starting with tok[i] at
 * the `<`. Returns the argument's tokens joined by spaces, or "" if the
 * scan fails (unbalanced, not a template).
 */
std::string
firstTemplateArg(const std::vector<Tok> &t, std::size_t lt)
{
    if (!tokIs(t, lt, "<"))
        return "";
    int depth = 1;
    std::string arg;
    for (std::size_t i = lt + 1; i < t.size() && i < lt + 64; i++) {
        const std::string &s = t[i].text;
        if (s == "<") {
            depth++;
        } else if (s == ">") {
            if (--depth == 0)
                return arg;
        } else if (s == "," && depth == 1) {
            return arg;
        } else if (s == ";" || s == "{") {
            return "";  // not a template after all (a < b; ...)
        }
        if (depth >= 1) {
            if (!arg.empty())
                arg += " ";
            arg += s;
        }
    }
    return "";
}

/**
 * The container identifier a member call grows: the innermost name of
 * the receiver expression. `a.push_back(` gives "a", `p->waiters.
 * push_back(` gives "waiters", `buckets_[i].push_back(` gives
 * "buckets_". Returns "" when the receiver is not an identifier (e.g.
 * `f().push_back(`); callers treat that conservatively.
 */
std::string
receiverOf(const std::vector<Tok> &t, std::size_t callIdent)
{
    // callIdent is the member-name token; step over the `.` or `->`.
    std::size_t i = callIdent;
    if (prevIs(t, i, ".")) {
        i -= 1;
    } else if (i >= 2 && t[i - 1].text == ">" && t[i - 2].text == "-") {
        i -= 2;
    } else {
        return "";
    }
    if (i == 0)
        return "";
    std::size_t j = i - 1;
    // skip one or more subscript groups: buckets_[eff & mask]
    while (t[j].text == "]") {
        int depth = 1;
        while (j > 0 && depth > 0) {
            j--;
            if (t[j].text == "]")
                depth++;
            else if (t[j].text == "[")
                depth--;
        }
        if (j == 0)
            return "";
        j--;
    }
    return t[j].kind == Tok::Ident ? t[j].text : "";
}

// ---------------------------------------------------------------------------
// Method bodies (for S004)
// ---------------------------------------------------------------------------

/**
 * Tokens of the body of `Class::method(...) { ... }`; empty when not
 * found.
 */
std::vector<Tok>
methodBody(const LexedFile &lx, const std::string &cls,
           const std::string &method)
{
    const std::vector<Tok> &t = lx.toks;
    for (std::size_t i = 0; i + 3 < t.size(); i++) {
        if (t[i].text != cls || t[i + 1].text != ":" ||
            t[i + 2].text != ":" || t[i + 3].text != method)
            continue;
        // find the opening brace of the definition
        std::size_t j = i + 4;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";")
            j++;
        if (j >= t.size() || t[j].text == ";")
            continue;  // a declaration, keep looking
        int depth = 0;
        std::vector<Tok> body;
        for (; j < t.size(); j++) {
            if (t[j].text == "{") {
                depth++;
                if (depth == 1)
                    continue;
            }
            if (t[j].text == "}" && --depth == 0)
                return body;
            body.push_back(t[j]);
        }
    }
    return {};
}

// ---------------------------------------------------------------------------
// Class-member statement extraction (for the C rules)
// ---------------------------------------------------------------------------

/**
 * One member-declaration statement of a class body. Nested brace groups
 * (function bodies, nested types) and the argument lists of CSIM_*
 * annotation macros are stripped; the macro names themselves are kept
 * in `annotations` so C001 can see CSIM_GUARDED_BY.
 */
struct MemberStmt {
    std::vector<const Tok *> toks;
    std::set<std::string> annotations;   ///< CSIM_* macros on the decl
    bool function = false;               ///< carries non-macro parens
};

/** A class/struct definition found in a token stream. */
struct ClassDef {
    std::string name;
    std::size_t braceIdx;                ///< index of the opening `{`
};

/** Step j past a balanced `( ... )` group whose `(` is at j+1; leaves
 *  j on the closing `)` (or at end of input). */
void
skipParens(const std::vector<Tok> &t, std::size_t &j)
{
    int d = 0;
    for (j++; j < t.size(); j++) {
        if (t[j].text == "(")
            d++;
        else if (t[j].text == ")" && --d == 0)
            break;
    }
}

/**
 * Every class/struct definition in a token stream, including nested and
 * out-of-line qualified ones (`struct Outer::Inner { ... }`). Skips
 * forward declarations, `enum struct`, and annotation macros between
 * the keyword and the name (`class CSIM_CAPABILITY("mutex") Mutex`).
 */
std::vector<ClassDef>
classBodies(const std::vector<Tok> &t)
{
    std::vector<ClassDef> out;
    for (std::size_t i = 0; i < t.size(); i++) {
        if (t[i].text != "struct" && t[i].text != "class")
            continue;
        if (prevIs(t, i, "enum"))
            continue;
        std::string name;
        bool inBase = false;
        for (std::size_t j = i + 1; j < t.size() && j < i + 96; j++) {
            const std::string &s = t[j].text;
            if (s == "{") {
                if (!name.empty())
                    out.push_back({name, j});
                break;
            }
            if (s == ";" || s == "(" || s == "=")
                break;  // forward declaration / macro call / alias
            if (s == ":") {
                if (tokIs(t, j + 1, ":")) {
                    j++;  // `::` qualifier; keep collecting the name
                    continue;
                }
                inBase = true;  // base clause; the name is fixed now
                continue;
            }
            if (t[j].kind != Tok::Ident || inBase)
                continue;
            if (s.rfind("CSIM_", 0) == 0) {
                if (tokIs(t, j + 1, "("))
                    skipParens(t, j);
                continue;  // capability annotation, not the name
            }
            if (s != "final")
                name = s;
        }
    }
    return out;
}

/** Member statements of the class body opening at braceIdx. */
std::vector<MemberStmt>
memberStatements(const std::vector<Tok> &t, std::size_t braceIdx)
{
    std::vector<MemberStmt> out;
    MemberStmt cur;
    int depth = 1;
    for (std::size_t j = braceIdx + 1; j < t.size() && depth > 0; j++) {
        const std::string &s = t[j].text;
        if (s == "}") {
            depth--;
            continue;
        }
        if (s == "{") {
            // Nested group: a function body, a nested type, or (after
            // `=`) a brace initializer. Only the initializer continues
            // the statement.
            int d = 1;
            while (++j < t.size() && d > 0) {
                if (t[j].text == "{")
                    d++;
                else if (t[j].text == "}")
                    d--;
            }
            j--;
            bool init = false;
            for (const Tok *tk : cur.toks)
                if (tk->text == "=")
                    init = true;
            if (!init)
                cur = MemberStmt();
            continue;
        }
        if (s == ";") {
            if (!cur.toks.empty() && !cur.function)
                out.push_back(cur);
            cur = MemberStmt();
            continue;
        }
        if (s == ":" && cur.toks.size() == 1 &&
            (cur.toks[0]->text == "public" ||
             cur.toks[0]->text == "private" ||
             cur.toks[0]->text == "protected")) {
            cur = MemberStmt();  // access specifier
            continue;
        }
        if (t[j].kind == Tok::Ident && s.rfind("CSIM_", 0) == 0) {
            cur.annotations.insert(s);
            if (tokIs(t, j + 1, "("))
                skipParens(t, j);
            continue;
        }
        if (s == "(")
            cur.function = true;
        cur.toks.push_back(&t[j]);
    }
    return out;
}

bool
stmtHasIdent(const MemberStmt &m, const char *id)
{
    for (const Tok *tk : m.toks)
        if (tk->kind == Tok::Ident && tk->text == id)
            return true;
    return false;
}

/** The declared name of a data-member statement: the last identifier
 *  before `=` (or before the terminating `;` when no initializer). */
std::string
memberName(const MemberStmt &m)
{
    std::string last;
    for (const Tok *tk : m.toks) {
        if (tk->text == "=")
            break;
        if (tk->kind == Tok::Ident)
            last = tk->text;
    }
    return last;
}

/** A per-instance data member: not a function, type, alias, friend or
 *  static. */
bool
isDataMember(const MemberStmt &m)
{
    if (m.toks.empty() || m.function)
        return false;
    for (const char *kw :
         {"static", "constexpr", "using", "typedef", "friend",
          "operator", "struct", "class", "enum", "template"})
        if (stmtHasIdent(m, kw))
            return false;
    return true;
}

/** Index of the token closing the group opened by t[open] (`(`, `[`
 *  or `{`), or t.size() when it never closes. */
std::size_t
closeOf(const std::vector<Tok> &t, std::size_t open)
{
    const std::string &o = t[open].text;
    const char *c = o == "(" ? ")" : o == "[" ? "]" : "}";
    int d = 0;
    for (std::size_t j = open; j < t.size(); j++) {
        if (t[j].text == o)
            d++;
        else if (t[j].text == c && --d == 0)
            return j;
    }
    return t.size();
}

/** The top-level comma-separated pieces of tokens (a, b), as
 *  half-open index ranges. */
std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const std::vector<Tok> &t, std::size_t a, std::size_t b)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t start = a + 1;
    int d = 0;
    for (std::size_t j = a + 1; j < b; j++) {
        const std::string &s = t[j].text;
        if (s == "(" || s == "[" || s == "{")
            d++;
        else if (s == ")" || s == "]" || s == "}")
            d--;
        else if (s == "," && d == 0) {
            out.emplace_back(start, j);
            start = j + 1;
        }
    }
    if (start < b)
        out.emplace_back(start, b);
    return out;
}

/** The identifier an expression leads with, past unary `&`, `*`, `!`
 *  and opening parentheses; "" when it leads with anything else. */
std::string
leadingIdent(const std::vector<Tok> &t, std::pair<std::size_t, std::size_t> r)
{
    for (std::size_t j = r.first; j < r.second; j++) {
        if (t[j].kind == Tok::Ident)
            return t[j].text;
        if (t[j].text != "&" && t[j].text != "*" && t[j].text != "!" &&
            t[j].text != "(")
            return "";
    }
    return "";
}

/** Is t[j] the member of a `.name(` or `->name(` call? */
bool
isMemberCall(const std::vector<Tok> &t, std::size_t j)
{
    return tokIs(t, j + 1, "(") &&
           (prevIs(t, j, ".") ||
            (prevIs(t, j, ">") && j >= 2 && t[j - 2].text == "-"));
}

/** The identifier heading the object expression of the member call at
 *  t[j] (`a.b[i].fields(` -> a), across `.`/`->` links and subscripts. */
std::string
callObject(const std::vector<Tok> &t, std::size_t j)
{
    std::string head;
    std::size_t k = j;
    for (;;) {
        if (prevIs(t, k, "."))
            k -= 1;
        else if (prevIs(t, k, ">") && k >= 2 && t[k - 2].text == "-")
            k -= 2;
        else
            return head;
        while (k > 0 && t[k - 1].text == "]") {
            int d = 0;
            std::size_t e = k - 1;
            for (; e > 0; e--) {
                if (t[e].text == "]")
                    d++;
                else if (t[e].text == "[" && --d == 0)
                    break;
            }
            k = e;
        }
        if (k == 0 || t[k - 1].kind != Tok::Ident)
            return head;
        head = t[--k].text;
    }
}

/** The visitor operations that take a member as their first argument
 *  (core/snapshot_io.hh); check() and the bounds are not visits. */
const std::set<std::string> visitOps = {
    "u64", "u32", "u8", "i64", "f64", "boolean",
    "expect", "list", "map", "optional",
};

/**
 * The members visited in tokens (a, b) of a fields() body whose
 * visitor parameter is `vis`: the leading identifier of a visit
 * operation's first argument, the value of a named visit `vis(name,
 * x)`, the object whose fields() or checkpoint() is called, and the
 * range of a `for` whose body visits. Returns whether anything in the
 * range visits.
 */
bool
collectVisits(const std::vector<Tok> &t, std::size_t a, std::size_t b,
              const std::string &vis, std::set<std::string> &visited)
{
    bool any = false;
    for (std::size_t j = a + 1; j < b; j++) {
        const std::string &s = t[j].text;
        if (s == vis && tokIs(t, j + 1, ".") && j + 3 < b &&
            visitOps.count(t[j + 2].text) && tokIs(t, j + 3, "(") &&
            !prevIs(t, j, ".")) {
            auto args = splitArgs(t, j + 3, closeOf(t, j + 3));
            if (!args.empty())
                visited.insert(leadingIdent(t, args[0]));
            any = true;
        } else if (s == vis && tokIs(t, j + 1, "(") && !prevIs(t, j, ".")) {
            auto args = splitArgs(t, j + 1, closeOf(t, j + 1));
            if (args.size() == 2)
                visited.insert(leadingIdent(t, args[1]));
            any = true;
        } else if ((s == "fields" || s == "checkpoint") &&
                   isMemberCall(t, j)) {
            visited.insert(callObject(t, j));
            any = true;
        } else if (s == "for" && tokIs(t, j + 1, "(")) {
            std::size_t close = closeOf(t, j + 1);
            std::size_t colon = close;
            int d = 0;
            for (std::size_t k = j + 2; k < close; k++) {
                const std::string &c = t[k].text;
                if (c == "(" || c == "[" || c == "{" || c == "<")
                    d++;
                else if (c == ")" || c == "]" || c == "}" || c == ">")
                    d--;
                else if (c == ":" && d == 0 && !tokIs(t, k + 1, ":") &&
                         !prevIs(t, k, ":")) {
                    colon = k;
                    break;
                }
            }
            if (colon == close || close >= b)
                continue;  // a classic for: its parts are scanned as is
            std::size_t end = close + 1;
            if (tokIs(t, end, "{")) {
                end = closeOf(t, end);
            } else {
                for (int depth = 0; end < b; end++) {
                    const std::string &c = t[end].text;
                    if (c == "(" || c == "[" || c == "{")
                        depth++;
                    else if (c == ")" || c == "]" || c == "}")
                        depth--;
                    else if (c == ";" && depth == 0)
                        break;
                }
            }
            if (collectVisits(t, close, end + 1, vis, visited)) {
                any = true;
                // `: member` or `: {&a_, &b_}`.
                std::size_t r0 = colon + 1;
                if (tokIs(t, r0, "{")) {
                    for (const auto &e : splitArgs(t, r0, closeOf(t, r0)))
                        visited.insert(leadingIdent(t, e));
                } else {
                    visited.insert(leadingIdent(t, {r0, close}));
                }
            }
            j = end;
        }
    }
    return any;
}

/**
 * The members visited by the fields() member function defined inline
 * in the class body opening at braceIdx (F001; see collectVisits()).
 * False when the class defines no fields().
 */
bool
fieldsVisits(const std::vector<Tok> &t, std::size_t braceIdx,
             std::set<std::string> &visited)
{
    int depth = 1;
    for (std::size_t j = braceIdx + 1; j < t.size() && depth > 0; j++) {
        if (t[j].text == "{")
            depth++;
        else if (t[j].text == "}")
            depth--;
        if (depth != 1 || t[j].text != "fields" || !tokIs(t, j + 1, "("))
            continue;
        // The visitor is the first parameter's name: `fields(V &v, ...)`.
        std::size_t params = j + 1;
        auto args = splitArgs(t, params, closeOf(t, params));
        std::string vis;
        if (!args.empty())
            for (std::size_t k = args[0].first; k < args[0].second; k++)
                if (t[k].kind == Tok::Ident)
                    vis = t[k].text;
        skipParens(t, j);  // the parameter list
        while (j < t.size() && t[j].text != "{" && t[j].text != ";")
            j++;
        if (j >= t.size() || t[j].text == ";")
            continue;  // a declaration or a call, not the definition
        collectVisits(t, j, closeOf(t, j), vis, visited);
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// The linter
// ---------------------------------------------------------------------------

struct Options {
    std::vector<std::string> paths;
    std::string projectRoot = ".";
    /** Rule ids ("C001") and category letters ("C") to run; empty
     *  means every rule. */
    std::set<std::string> rules;
    bool fixList = false;
    bool quiet = false;
    bool listRules = false;
    bool noStats = false;
    bool lockGraph = false;
};

class Linter
{
  public:
    explicit Linter(const Options &opts) : opts_(opts) {}

    int run();

  private:
    void scanFile(FileScan &f);
    void concurrencyPrePass();
    void concurrencyFileRules(FileScan &f);
    void lockOrderRules();
    void fieldListRules(FileScan &f);
    void restoreRule();
    void emit(const FileScan &f, int line, const char *rule,
              const std::string &msg);
    void emitRaw(const Diag &d)
    {
        if (ruleEnabled(d.rule))
            diags_.push_back(d);
    }

    bool ruleEnabled(const std::string &id) const
    {
        if (opts_.rules.empty())
            return true;
        return opts_.rules.count(id) ||
               opts_.rules.count(id.substr(0, 1));
    }

    bool categoryEnabled(char c) const
    {
        if (opts_.rules.empty())
            return true;
        for (const std::string &r : opts_.rules)
            if (!r.empty() && r[0] == c)
                return true;
        return false;
    }

    bool allowlisted(const std::string &path) const
    {
        // The project RNG is the one sanctioned randomness source.
        return path.find("common/random.") != std::string::npos;
    }

    /** One declared CSIM_ACQUIRED_BEFORE/AFTER ordering: src must be
     *  acquired before dst. */
    struct LockEdge {
        std::string src, dst;
        std::size_t fileIdx;
        int line;
    };

    Options opts_;
    std::vector<FileScan> files_;
    std::set<std::string> smallVecVars_;
    std::set<std::string> reservedVars_;
    std::set<std::string> declaredMutexes_;
    std::vector<LockEdge> lockEdges_;
    std::vector<Diag> diags_;
};

void
Linter::emit(const FileScan &f, int line, const char *rule,
             const std::string &msg)
{
    if (suppressed(f, line, rule))
        return;
    emitRaw({f.path, line, rule, msg});
}

void
Linter::scanFile(FileScan &f)
{
    const std::vector<Tok> &t = f.lx.toks;
    const bool allow = allowlisted(f.path);

    for (const Diag &d : f.directiveDiags)
        if (!suppressed(f, d.line, d.rule))
            emitRaw(d);

    for (std::size_t i = 0; i < t.size(); i++) {
        const Tok &tk = t[i];
        const bool hot = f.hotPath && !inCold(f, tk.line);
        if (tk.kind != Tok::Ident) {
            // H004: throw/try are keywords but lex as idents; nothing
            // to do for punctuation.
            continue;
        }
        const std::string &s = tk.text;

        // --- D001: banned random sources --------------------------------
        if (!allow &&
            (s == "rand" || s == "srand" || s == "drand48" ||
             s == "lrand48" || s == "mrand48" || s == "random") &&
            tokIs(t, i + 1, "(")) {
            emit(f, tk.line, "D001",
                 "call to '" + s + "()' is nondeterministic; use the "
                 "project PCG (src/common/random.*)");
        }
        if (!allow && (s == "random_device" || s == "random_shuffle")) {
            emit(f, tk.line, "D001",
                 "'std::" + s + "' is nondeterministic; use the "
                 "project PCG (src/common/random.*)");
        }

        // --- D002: wall-clock reads -------------------------------------
        if (!allow &&
            (s == "time" || s == "clock" || s == "gettimeofday" ||
             s == "clock_gettime" || s == "localtime" || s == "gmtime") &&
            tokIs(t, i + 1, "(") && !prevIs(t, i, ".") &&
            !(prevIs(t, i, ">") && i >= 2 && t[i - 2].text == "-")) {
            emit(f, tk.line, "D002",
                 "wall-clock call '" + s + "()' leaks host time into "
                 "the simulation");
        }
        if (!allow && s == "now" && prevIs(t, i, ":") &&
            tokIs(t, i + 1, "(")) {
            emit(f, tk.line, "D002",
                 "'::now()' reads the host clock; simulated results "
                 "must depend only on simulated cycles");
        }

        // --- D003: unordered containers ---------------------------------
        if (s == "unordered_map" || s == "unordered_set" ||
            s == "unordered_multimap" || s == "unordered_multiset") {
            emit(f, tk.line, "D003",
                 "'std::" + s + "' iteration order is unspecified and "
                 "unstable across libraries; use an ordered container");
        }

        // --- D004: pointer-keyed ordered containers ---------------------
        if ((s == "map" || s == "set" || s == "multimap" ||
             s == "multiset" || s == "priority_queue" || s == "less" ||
             s == "greater" || s == "hash") &&
            tokIs(t, i + 1, "<")) {
            std::string arg = firstTemplateArg(t, i + 1);
            if (!arg.empty() && arg.back() == '*') {
                emit(f, tk.line, "D004",
                     "'" + s + "<" + arg + ", ...>' orders by pointer "
                     "value, which varies run to run; key by a stable "
                     "id");
            }
        }

        // --- D005: pointer-to-integer casts -----------------------------
        if (s == "reinterpret_cast" && tokIs(t, i + 1, "<")) {
            std::string arg = firstTemplateArg(t, i + 1);
            if (arg.find("intptr_t") != std::string::npos ||
                arg.find("size_t") != std::string::npos) {
                emit(f, tk.line, "D005",
                     "casting a pointer to an integer bakes an address "
                     "into a value; addresses differ across runs");
            }
        }

        if (!hot)
            continue;

        // --- H001: heap allocation --------------------------------------
        if (s == "new") {
            emit(f, tk.line, "H001",
                 "'new' in hot-path code; allocate at construction or "
                 "pool the buffer");
        }
        // `) = delete;` declares a deleted function, not a deallocation
        if (s == "delete" &&
            !(prevIs(t, i, "=") && tokIs(t, i + 1, ";"))) {
            emit(f, tk.line, "H001",
                 "'delete' in hot-path code; ownership churn implies "
                 "allocation churn");
        }
        if ((s == "malloc" || s == "calloc" || s == "realloc" ||
             s == "free") &&
            tokIs(t, i + 1, "(")) {
            emit(f, tk.line, "H001",
                 "'" + s + "()' in hot-path code");
        }
        if (s == "make_unique" || s == "make_shared") {
            emit(f, tk.line, "H001",
                 "'std::" + s + "' allocates; hot-path code must not");
        }

        // --- H002: unreserved container growth --------------------------
        if ((s == "push_back" || s == "emplace_back") &&
            (prevIs(t, i, ".") ||
             (prevIs(t, i, ">") && i >= 2 && t[i - 2].text == "-"))) {
            std::string recv = receiverOf(t, i);
            bool ok = !recv.empty() &&
                (smallVecVars_.count(recv) || reservedVars_.count(recv));
            if (!ok) {
                std::string what = recv.empty()
                    ? "receiver is not a simple identifier chain"
                    : "'" + recv + "' is neither a SmallVec nor "
                      "visibly reserve()d";
                emit(f, tk.line, "H002",
                     "'" + s + "' may grow the heap in hot-path code "
                     "(" + what + ")");
            }
        }

        // --- H003: string construction ----------------------------------
        if (s == "string" && prevIs(t, i, ":") &&
            !tokIs(t, i + 1, "&") && !tokIs(t, i + 1, "*")) {
            emit(f, tk.line, "H003",
                 "'std::string' by value in hot-path code allocates; "
                 "pass a reference or format in the cold path");
        }
        if (s == "to_string" || s == "stringstream" ||
            s == "ostringstream" || s == "istringstream") {
            emit(f, tk.line, "H003",
                 "'" + s + "' builds strings in hot-path code");
        }

        // --- H004: throwing constructs ----------------------------------
        if (s == "throw" || s == "try") {
            emit(f, tk.line, "H004",
                 "'" + s + "' in hot-path code; use fatal()/CSIM_ASSERT "
                 "for fatal conditions");
        }

        // --- T001: ungated observer access -----------------------------
        // CSIM_OBSERVE expands to a currentObserver() load only in
        // observe builds; naming an observer directly in hot-path code
        // would make the default build pay for observation.
        if (s == "Observer" || s == "ObserverScope" ||
            s == "currentObserver" || s == "TraceSink" ||
            s == "InvariantChecker") {
            emit(f, tk.line, "T001",
                 "'" + s + "' in hot-path code bypasses the CSIM_OBSERVE "
                 "compile-time gate; a default build must carry no "
                 "observation");
        }
    }
}

/**
 * Cross-file facts the C rules need: every declared mutex identifier
 * (clustersim::Mutex or std::mutex, members/locals/parameters alike)
 * for C005, and the CSIM_ACQUIRED_BEFORE/AFTER ordering edges for C004
 * and --lock-graph.
 */
void
Linter::concurrencyPrePass()
{
    for (std::size_t fi = 0; fi < files_.size(); fi++) {
        const std::vector<Tok> &t = files_[fi].lx.toks;
        for (std::size_t i = 0; i < t.size(); i++) {
            if (t[i].kind != Tok::Ident)
                continue;
            const std::string &s = t[i].text;

            if (s == "Mutex" || s == "mutex") {
                std::size_t j = i + 1;
                while (tokIs(t, j, "&") || tokIs(t, j, "*"))
                    j++;
                // `mutex & native (` is a function returning a mutex
                // reference, not a declaration; skip it so native()
                // escapes stay outside the blessed set.
                if (j < t.size() && t[j].kind == Tok::Ident &&
                    t[j].text.rfind("CSIM_", 0) != 0 &&
                    !tokIs(t, j + 1, "("))
                    declaredMutexes_.insert(t[j].text);
            }

            if ((s == "CSIM_ACQUIRED_BEFORE" ||
                 s == "CSIM_ACQUIRED_AFTER") &&
                tokIs(t, i + 1, "(")) {
                // The annotated member is the nearest preceding ident.
                std::string src;
                for (std::size_t k = i; k-- > 0;) {
                    if (t[k].kind == Tok::Ident) {
                        src = t[k].text;
                        break;
                    }
                    if (t[k].text == ";" || t[k].text == "{" ||
                        t[k].text == "}")
                        break;
                }
                if (src.empty())
                    continue;
                const bool before = (s == "CSIM_ACQUIRED_BEFORE");
                int d = 0;
                std::string arg;
                auto addEdge = [&] {
                    if (arg.empty())
                        return;
                    if (before)
                        lockEdges_.push_back({src, arg, fi, t[i].line});
                    else
                        lockEdges_.push_back({arg, src, fi, t[i].line});
                    arg.clear();
                };
                for (std::size_t k = i + 1; k < t.size(); k++) {
                    if (t[k].text == "(") {
                        d++;
                    } else if (t[k].text == ")") {
                        if (--d == 0) {
                            addEdge();
                            break;
                        }
                    } else if (t[k].text == "," && d == 1) {
                        addEdge();
                    } else if (t[k].kind == Tok::Ident) {
                        arg = t[k].text;
                    }
                }
            }
        }
    }
}

/** Per-file C rules: C001 (unguarded members), C002 (predicate-less
 *  waits), C003 (naked std::thread), C005 (guard over an undeclared
 *  mutex). */
void
Linter::concurrencyFileRules(FileScan &f)
{
    const std::vector<Tok> &t = f.lx.toks;

    // --- C001: every member of a mutex-owning class is guarded -------
    for (const ClassDef &cd : classBodies(t)) {
        std::vector<MemberStmt> members =
            memberStatements(t, cd.braceIdx);
        auto isMutexDecl = [](const MemberStmt &m) {
            return stmtHasIdent(m, "Mutex") || stmtHasIdent(m, "mutex");
        };
        auto isExempt = [&](const MemberStmt &m) {
            // Locks guard, they are not guarded; condition variables
            // and atomics synchronize themselves.
            return isMutexDecl(m) ||
                   stmtHasIdent(m, "ConditionVariable") ||
                   stmtHasIdent(m, "condition_variable") ||
                   stmtHasIdent(m, "condition_variable_any") ||
                   stmtHasIdent(m, "atomic");
        };
        bool ownsMutex = false;
        for (const MemberStmt &m : members)
            if (isMutexDecl(m))
                ownsMutex = true;
        if (!ownsMutex)
            continue;
        for (const MemberStmt &m : members) {
            if (!isDataMember(m) || isExempt(m))
                continue;
            if (m.annotations.count("CSIM_GUARDED_BY") ||
                m.annotations.count("CSIM_PT_GUARDED_BY"))
                continue;
            std::string name = memberName(m);
            if (name.empty())
                continue;
            emit(f, m.toks.front()->line, "C001",
                 "'" + cd.name + "::" + name + "' is a member of a "
                 "mutex-owning class but has no CSIM_GUARDED_BY; "
                 "annotate it, or suppress with the reason it needs no "
                 "lock");
        }
    }

    for (std::size_t i = 0; i < t.size(); i++) {
        if (t[i].kind != Tok::Ident)
            continue;
        const std::string &s = t[i].text;

        // --- C002: condition-variable wait without a predicate -------
        if ((s == "wait" || s == "wait_for" || s == "wait_until") &&
            tokIs(t, i + 1, "(") &&
            (prevIs(t, i, ".") ||
             (prevIs(t, i, ">") && i >= 2 && t[i - 2].text == "-"))) {
            std::string recv = receiverOf(t, i);
            std::string lower = recv;
            for (char &c : lower)
                c = (c >= 'A' && c <= 'Z')
                        ? static_cast<char>(c - 'A' + 'a')
                        : c;
            if (lower.find("cv") != std::string::npos ||
                lower.find("cond") != std::string::npos) {
                int commas = 0, depth = 0;
                for (std::size_t j = i + 1; j < t.size(); j++) {
                    if (t[j].text == "(") {
                        depth++;
                    } else if (t[j].text == ")") {
                        if (--depth == 0)
                            break;
                    } else if (t[j].text == "," && depth == 1) {
                        commas++;
                    }
                }
                int need = (s == "wait") ? 1 : 2;
                if (commas < need)
                    emit(f, t[i].line, "C002",
                         "'" + recv + "." + s + "' without a "
                         "predicate; unconditional waits lose wakeups "
                         "-- use the predicate overload");
            }
        }

        // --- C003: naked std::thread outside launcher files ----------
        if ((s == "thread" || s == "jthread") && prevIs(t, i, ":") &&
            !tokIs(t, i + 1, ":") && !f.threadLauncher) {
            emit(f, t[i].line, "C003",
                 "'std::" + s + "' outside a blessed launcher file; "
                 "route work through an existing pool, or annotate the "
                 "file '// simlint: thread-launcher -- <why>'");
        }

        // --- C005: scoped guard over an undeclared mutex -------------
        if (s == "lock_guard" || s == "unique_lock" ||
            s == "scoped_lock" || s == "shared_lock" ||
            s == "MutexLock" || s == "UniqueLock") {
            std::size_t j = i + 1;
            if (tokIs(t, j, "<")) {
                int d = 0;
                for (; j < t.size(); j++) {
                    if (t[j].text == "<") {
                        d++;
                    } else if (t[j].text == ">" && --d == 0) {
                        j++;
                        break;
                    }
                }
            }
            if (j >= t.size() || t[j].kind != Tok::Ident ||
                !tokIs(t, j + 1, "("))
                continue;  // not a guard construction
            // Innermost identifier of the first constructor argument:
            // `mutex_`, `rec.mutex`, `store->mutex_` all resolve to
            // their final name.
            int d = 0;
            std::string arg;
            for (std::size_t k = j + 1; k < t.size(); k++) {
                if (t[k].text == "(") {
                    d++;
                } else if (t[k].text == ")") {
                    if (--d == 0)
                        break;
                } else if (t[k].text == "," && d == 1) {
                    break;
                } else if (t[k].kind == Tok::Ident) {
                    arg = t[k].text;
                }
            }
            if (!arg.empty() && !declaredMutexes_.count(arg))
                emit(f, t[i].line, "C005",
                     "guard over '" + arg + "', which is not a mutex "
                     "declared anywhere in the scanned tree; every "
                     "lock must be reachable from the annotated set");
        }
    }
}

/** C004: the declared CSIM_ACQUIRED_BEFORE/AFTER order is a DAG. */
void
Linter::lockOrderRules()
{
    std::map<std::string, std::vector<std::size_t>> adj;
    for (std::size_t e = 0; e < lockEdges_.size(); e++)
        adj[lockEdges_[e].src].push_back(e);

    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    auto visit = [&](auto &&self, const std::string &n) -> void {
        color[n] = 1;
        stack.push_back(n);
        auto it = adj.find(n);
        if (it != adj.end()) {
            for (std::size_t e : it->second) {
                const LockEdge &ed = lockEdges_[e];
                int c = color.count(ed.dst) ? color[ed.dst] : 0;
                if (c == 0) {
                    self(self, ed.dst);
                } else if (c == 1) {
                    // Back edge: the grey target is on the stack.
                    std::size_t p = 0;
                    while (p < stack.size() && stack[p] != ed.dst)
                        p++;
                    std::string path = ed.dst;
                    for (std::size_t q = p + 1; q < stack.size(); q++)
                        path += " -> " + stack[q];
                    path += " -> " + ed.dst;
                    emit(files_[ed.fileIdx], ed.line, "C004",
                         "declared lock order has a cycle: " + path +
                         "; CSIM_ACQUIRED_BEFORE declarations must "
                         "form a DAG");
                }
            }
        }
        stack.pop_back();
        color[n] = 2;
    };
    for (const auto &kv : adj)
        if (!color.count(kv.first))
            visit(visit, kv.first);
}

/** F001: every data member of a class that defines fields() is visited
 *  by it, or carries a reasoned suppression. */
void
Linter::fieldListRules(FileScan &f)
{
    const std::vector<Tok> &t = f.lx.toks;
    for (const ClassDef &cd : classBodies(t)) {
        std::set<std::string> named;
        if (!fieldsVisits(t, cd.braceIdx, named))
            continue;
        for (const MemberStmt &m : memberStatements(t, cd.braceIdx)) {
            std::string name = memberName(m);
            if (!isDataMember(m) || name.empty() || named.count(name))
                continue;
            emit(f, m.toks.front()->line, "F001",
                 "'" + cd.name + "::" + name + "' is not visited by " +
                     cd.name + "::fields(); checkpoints and reports "
                     "walking that list would silently drop it -- "
                     "visit it, or suppress with the reason it is "
                     "construction-time identity");
        }
    }
}

/** S004: every Processor::Snapshot member is applied by
 *  Processor::restore(). Serialization needs no such check: it walks
 *  Snapshot::fields(), which F001 holds complete. */
void
Linter::restoreRule()
{
    const fs::path root = opts_.projectRoot;
    FileScan fProcHh, fProcCc;
    auto readLex = [](const fs::path &p, FileScan &f) {
        std::ifstream in(p);
        if (!in)
            return false;
        std::stringstream ss;
        ss << in.rdbuf();
        f.path = p.string();
        f.lx = lex(ss.str());
        parseDirectives(f);
        return true;
    };
    if (!readLex(root / "src/core/processor.hh", fProcHh) ||
        !readLex(root / "src/core/processor.cc", fProcCc)) {
        // Not a full project tree; the check needs the declaration and
        // the restore path together.
        if (!opts_.quiet)
            std::fprintf(stderr,
                         "simlint: note: snapshot files not found "
                         "under '%s'; S004 skipped\n",
                         root.string().c_str());
        return;
    }

    const std::vector<Tok> &t = fProcHh.lx.toks;
    std::vector<MemberStmt> members;
    for (std::size_t i = 0; i + 5 < t.size(); i++)
        if ((t[i].text == "struct" || t[i].text == "class") &&
            t[i + 1].text == "Processor" && t[i + 2].text == ":" &&
            t[i + 3].text == ":" && t[i + 4].text == "Snapshot" &&
            t[i + 5].text == "{")
            members = memberStatements(t, i + 5);
    std::vector<Tok> restoreBody =
        methodBody(fProcCc.lx, "Processor", "restore");
    if (members.empty() || restoreBody.empty()) {
        emitRaw({fProcHh.path, 1, "S004",
                 "could not parse Processor::Snapshot or "
                 "Processor::restore(); the restore coverage check is "
                 "blind"});
        return;
    }

    std::set<std::string> restoreIds;
    for (const Tok &tk : restoreBody)
        if (tk.kind == Tok::Ident)
            restoreIds.insert(tk.text);
    for (const MemberStmt &m : members) {
        std::string name = memberName(m);
        if (!isDataMember(m) || name.empty() || restoreIds.count(name))
            continue;
        emit(fProcHh, m.toks.front()->line, "S004",
             "Processor::Snapshot::" + name + " is not applied by "
             "Processor::restore(); restored runs would diverge from "
             "straight-line warmup");
    }
}

int
Linter::run()
{
    if (opts_.listRules) {
        for (const RuleInfo &r : ruleTable)
            std::printf("%s  %-40s %s\n", r.id, r.title, r.hint);
        return 0;
    }

    // simlint-ignore(D002): the linter times itself for the summary
    // line; no simulated state depends on this clock read
    const auto wallStart = std::chrono::steady_clock::now();

    // Collect files.
    std::vector<std::string> sources;
    for (const std::string &p : opts_.paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 it != fs::recursive_directory_iterator(); ++it) {
                if (!it->is_regular_file())
                    continue;
                std::string ext = it->path().extension().string();
                if (ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
                    ext == ".h" || ext == ".hpp")
                    sources.push_back(it->path().string());
            }
        } else if (fs::is_regular_file(p, ec)) {
            sources.push_back(p);
        } else {
            std::fprintf(stderr, "simlint: no such path: %s\n",
                         p.c_str());
            return 2;
        }
    }
    std::sort(sources.begin(), sources.end());

    files_.reserve(sources.size());
    for (const std::string &p : sources) {
        std::ifstream in(p);
        if (!in) {
            std::fprintf(stderr, "simlint: cannot read %s\n", p.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        FileScan f;
        f.path = p;
        f.lx = lex(ss.str());
        parseDirectives(f);
        files_.push_back(std::move(f));
    }

    // Global pre-pass: SmallVec declarations and visible reserve()/
    // resize() receivers, used by H002 across file boundaries (a member
    // may be declared in a header and grown in the .cc).
    for (const FileScan &f : files_) {
        const std::vector<Tok> &t = f.lx.toks;
        for (std::size_t i = 0; i < t.size(); i++) {
            if (t[i].text == "SmallVec" && tokIs(t, i + 1, "<")) {
                int depth = 0;
                for (std::size_t j = i + 1; j < t.size(); j++) {
                    if (t[j].text == "<")
                        depth++;
                    else if (t[j].text == ">" && --depth == 0) {
                        if (j + 1 < t.size() &&
                            t[j + 1].kind == Tok::Ident)
                            smallVecVars_.insert(t[j + 1].text);
                        break;
                    }
                }
            }
            if ((t[i].text == "reserve" || t[i].text == "resize") &&
                tokIs(t, i + 1, "(")) {
                std::string recv = receiverOf(t, i);
                if (!recv.empty())
                    reservedVars_.insert(recv);
            }
        }
    }

    concurrencyPrePass();

    if (opts_.lockGraph) {
        // Dump the declared acquisition-order graph (the C004 input)
        // and stop; CI archives this as a reviewable artifact.
        std::printf("# simlint lock-order graph: %zu edge(s) from "
                    "CSIM_ACQUIRED_BEFORE/_AFTER declarations\n",
                    lockEdges_.size());
        for (const LockEdge &e : lockEdges_)
            std::printf("%s -> %s  # %s:%d\n", e.src.c_str(),
                        e.dst.c_str(), files_[e.fileIdx].path.c_str(),
                        e.line);
        return 0;
    }

    for (FileScan &f : files_) {
        scanFile(f);
        concurrencyFileRules(f);
        fieldListRules(f);
    }
    lockOrderRules();
    if (!opts_.noStats && categoryEnabled('S'))
        restoreRule();

    std::sort(diags_.begin(), diags_.end(),
              [](const Diag &a, const Diag &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    for (const Diag &d : diags_)
        std::printf("%s:%d: %s: %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.msg.c_str());

    if (opts_.fixList && !diags_.empty()) {
        std::map<std::string, int> counts;
        for (const Diag &d : diags_)
            counts[d.rule]++;
        std::printf("\nfix list:\n");
        for (const auto &[id, n] : counts) {
            const RuleInfo *r = findRule(id);
            std::printf("  %s x%-3d %s\n      fix: %s\n", id.c_str(), n,
                        r ? r->title : "?", r ? r->hint : "?");
        }
    }

    if (!opts_.quiet) {
        std::map<std::string, int> perRule;
        for (const Diag &d : diags_)
            perRule[d.rule]++;
        std::string breakdown;
        for (const auto &[id, n] : perRule)
            breakdown += (breakdown.empty() ? " [" : ", ") + id +
                         " x" + std::to_string(n);
        if (!breakdown.empty())
            breakdown += "]";
        // simlint-ignore(D002): linter wall time for the summary line
        const auto wallEnd = std::chrono::steady_clock::now();
        std::chrono::duration<double> wall = wallEnd - wallStart;
        std::fprintf(stderr,
                     "simlint: %zu file(s), %zu diagnostic(s)%s, "
                     "%.3fs\n",
                     files_.size(), diags_.size(), breakdown.c_str(),
                     wall.count());
    }
    return diags_.empty() ? 0 : 1;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: simlint [options] [path...]\n"
        "  path                 files or directories to scan "
        "(default: <root>/src)\n"
        "  --project-root DIR   tree containing src/core/processor.* "
        "for S004 (default: .)\n"
        "  --rules LIST         run only these comma-separated rule "
        "ids or category\n"
        "                       letters (e.g. C or C001,D); default: "
        "all rules\n"
        "  --fix-list           append a per-rule summary with fix "
        "hints\n"
        "  --no-stats           skip S004, the one rule that reads the "
        "project tree\n"
        "  --lock-graph         print the declared lock-order graph "
        "and exit\n"
        "  --list-rules         print the rule table and exit\n"
        "  --quiet              suppress the summary line\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--fix-list") {
            opts.fixList = true;
        } else if (a == "--quiet") {
            opts.quiet = true;
        } else if (a == "--list-rules") {
            opts.listRules = true;
        } else if (a == "--no-stats") {
            opts.noStats = true;
        } else if (a == "--lock-graph") {
            opts.lockGraph = true;
        } else if (a == "--rules") {
            if (++i >= argc) {
                usage();
                return 2;
            }
            std::stringstream ss(argv[i]);
            std::string item;
            while (std::getline(ss, item, ',')) {
                item = trim(item);
                if (item.empty())
                    continue;
                bool category =
                    item.size() == 1 &&
                    std::string("CDFHSTL").find(item) !=
                        std::string::npos;
                if (!category && !findRule(item)) {
                    std::fprintf(stderr,
                                 "simlint: unknown rule or category "
                                 "'%s'\n",
                                 item.c_str());
                    return 2;
                }
                opts.rules.insert(item);
            }
        } else if (a == "--project-root") {
            if (++i >= argc) {
                usage();
                return 2;
            }
            opts.projectRoot = argv[i];
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "simlint: unknown option %s\n",
                         a.c_str());
            usage();
            return 2;
        } else {
            opts.paths.push_back(a);
        }
    }
    if (opts.paths.empty())
        opts.paths.push_back(
            (std::filesystem::path(opts.projectRoot) / "src").string());

    return Linter(opts).run();
}
