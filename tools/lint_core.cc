#include "lint_core.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace schedtask::lint
{

std::string
Diag::str() const
{
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << message;
    return os.str();
}

namespace
{

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/**
 * Comment- and string-free view of the source. Literals are blanked
 * with spaces so byte offsets and line numbers survive, which lets
 * test fixtures embed rule violations inside raw strings without
 * tripping the linter on the test file itself.
 */
struct Scrubbed
{
    std::string text;
    /** line -> rules allowed there via lint:allow pragmas. */
    std::map<int, std::set<std::string>> allows;
    /** Malformed pragmas (LINT-00), reported unconditionally. */
    std::vector<Diag> pragmaDiags;
};

void
parsePragmas(const std::string &comment, int start_line,
             const std::string &file, Scrubbed &out)
{
    static const std::string kKey = "lint:allow(";
    std::size_t from = 0;
    while (true) {
        const std::size_t at = comment.find(kKey, from);
        if (at == std::string::npos)
            return;
        int line = start_line;
        for (std::size_t i = 0; i < at; ++i)
            if (comment[i] == '\n')
                ++line;
        const std::size_t rule_beg = at + kKey.size();
        const std::size_t rule_end = comment.find(')', rule_beg);
        if (rule_end == std::string::npos)
            return;
        const std::string rule =
            comment.substr(rule_beg, rule_end - rule_beg);
        std::size_t reason_end = comment.find('\n', rule_end);
        if (reason_end == std::string::npos)
            reason_end = comment.size();
        std::string reason =
            comment.substr(rule_end + 1, reason_end - rule_end - 1);
        // Strip whitespace and a trailing block-comment close.
        while (!reason.empty() && (reason.back() == '/'
                                   || reason.back() == '*'
                                   || std::isspace(static_cast<unsigned
                                          char>(reason.back())))) {
            reason.pop_back();
        }
        while (!reason.empty()
               && std::isspace(static_cast<unsigned char>(
                      reason.front()))) {
            reason.erase(reason.begin());
        }
        if (reason.empty()) {
            out.pragmaDiags.push_back(Diag{
                file, line, "LINT-00",
                "lint:allow(" + rule
                    + ") needs a reason after the closing paren"});
        } else {
            // The pragma covers its own line and the next one, so it
            // can sit on the offending line or on the line above.
            out.allows[line].insert(rule);
            out.allows[line + 1].insert(rule);
        }
        from = rule_end;
    }
}

Scrubbed
scrub(const std::string &src, const std::string &file)
{
    Scrubbed out;
    out.text.reserve(src.size());
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto put = [&](char c) {
        if (c == '\n') {
            ++line;
            out.text.push_back('\n');
        } else {
            out.text.push_back(c);
        }
    };
    auto blank = [&](char c) { put(c == '\n' ? '\n' : ' '); };

    while (i < n) {
        const char c = src[i];
        const char next = i + 1 < n ? src[i + 1] : '\0';
        if (c == '/' && next == '/') {
            const std::size_t end = src.find('\n', i);
            const std::size_t stop = end == std::string::npos ? n : end;
            parsePragmas(src.substr(i, stop - i), line, file, out);
            while (i < stop)
                blank(src[i++]);
        } else if (c == '/' && next == '*') {
            std::size_t end = src.find("*/", i + 2);
            const std::size_t stop =
                end == std::string::npos ? n : end + 2;
            parsePragmas(src.substr(i, stop - i), line, file, out);
            while (i < stop)
                blank(src[i++]);
        } else if (c == 'R' && next == '"'
                   && (i == 0 || !isIdentChar(src[i - 1]))) {
            // Raw string literal: R"delim( ... )delim"
            std::size_t p = i + 2;
            std::string delim;
            while (p < n && src[p] != '(')
                delim.push_back(src[p++]);
            const std::string close = ")" + delim + "\"";
            std::size_t end = src.find(close, p);
            const std::size_t stop =
                end == std::string::npos ? n : end + close.size();
            while (i < stop)
                blank(src[i++]);
        } else if (c == '"' || c == '\'') {
            const char quote = c;
            blank(src[i++]);
            while (i < n) {
                if (src[i] == '\\' && i + 1 < n) {
                    blank(src[i++]);
                    blank(src[i++]);
                } else if (src[i] == quote) {
                    blank(src[i++]);
                    break;
                } else if (src[i] == '\n') {
                    break; // unterminated; keep line counts sane
                } else {
                    blank(src[i++]);
                }
            }
        } else {
            put(src[i++]);
        }
    }
    return out;
}

struct Tok
{
    std::string text;
    std::size_t pos = 0;
    std::size_t end = 0;
    int line = 0;
};

std::vector<Tok>
tokenize(const std::string &s)
{
    std::vector<Tok> toks;
    int line = 1;
    for (std::size_t i = 0; i < s.size();) {
        if (s[i] == '\n') {
            ++line;
            ++i;
        } else if (isIdentChar(s[i])
                   && std::isdigit(static_cast<unsigned char>(s[i]))
                          == 0) {
            std::size_t j = i;
            while (j < s.size() && isIdentChar(s[j]))
                ++j;
            toks.push_back(Tok{s.substr(i, j - i), i, j, line});
            i = j;
        } else {
            ++i;
        }
    }
    return toks;
}

char
prevNonSpace(const std::string &s, std::size_t pos)
{
    while (pos > 0) {
        --pos;
        if (std::isspace(static_cast<unsigned char>(s[pos])) == 0)
            return s[pos];
    }
    return '\0';
}

char
nextNonSpace(const std::string &s, std::size_t pos)
{
    while (pos < s.size()) {
        if (std::isspace(static_cast<unsigned char>(s[pos])) == 0)
            return s[pos];
        ++pos;
    }
    return '\0';
}

/**
 * If the token at `pos` is preceded by `::`, return the qualifying
 * identifier ("" for the global `::name`). Returns "<none>" when the
 * token is unqualified.
 */
std::string
qualifierBefore(const std::string &s, std::size_t pos)
{
    std::size_t p = pos;
    while (p > 0
           && std::isspace(static_cast<unsigned char>(s[p - 1])) != 0)
        --p;
    if (p < 2 || s[p - 1] != ':' || s[p - 2] != ':')
        return "<none>";
    p -= 2;
    while (p > 0
           && std::isspace(static_cast<unsigned char>(s[p - 1])) != 0)
        --p;
    std::size_t q = p;
    while (q > 0 && isIdentChar(s[q - 1]))
        --q;
    return s.substr(q, p - q);
}

/** Skip a balanced <...> starting at `pos` (s[pos] == '<'). */
std::size_t
skipAngles(const std::string &s, std::size_t pos)
{
    int depth = 0;
    while (pos < s.size()) {
        if (s[pos] == '<')
            ++depth;
        else if (s[pos] == '>')
            --depth;
        else if (s[pos] == ';')
            return pos; // runaway (comparison, not template)
        ++pos;
        if (depth == 0)
            return pos;
    }
    return pos;
}

/** Read the identifier that names a declared variable/function after
 *  a container type ends at `pos` (skipping `&`, `*`, whitespace). */
std::string
declaredNameAfter(const std::string &s, std::size_t pos)
{
    while (pos < s.size()
           && (std::isspace(static_cast<unsigned char>(s[pos])) != 0
               || s[pos] == '&' || s[pos] == '*'))
        ++pos;
    std::size_t j = pos;
    while (j < s.size() && isIdentChar(s[j]))
        ++j;
    return s.substr(pos, j - pos);
}

const std::set<std::string> &
det01AlwaysBad()
{
    static const std::set<std::string> kBad = {
        "rand", "srand", "drand48", "random_device", "mt19937",
        "mt19937_64", "default_random_engine", "gettimeofday",
        "clock_gettime", "system_clock", "steady_clock",
        "high_resolution_clock",
    };
    return kBad;
}

const std::set<std::string> &
safe01Bad()
{
    static const std::set<std::string> kBad = {
        "atoi", "atof", "atol", "atoll", "strtol", "strtoul",
        "strtoll", "strtoull", "strtof", "strtod", "strtold",
    };
    return kBad;
}

const std::set<std::string> &
unorderedTypes()
{
    static const std::set<std::string> kTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    return kTypes;
}

const std::set<std::string> &
orderedTypes()
{
    static const std::set<std::string> kTypes = {
        "map", "set", "multimap", "multiset",
    };
    return kTypes;
}

bool
det02Applies(const std::string &rel_path)
{
    if (startsWith(rel_path, "src/stats/"))
        return true;
    const std::string base = baseName(rel_path);
    return startsWith(base, "trace_export")
           || startsWith(base, "reporting")
           || startsWith(base, "visualize");
}

std::string
expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (startsWith(p, "src/"))
        p.erase(0, 4);
    std::string guard = "SCHEDTASK_";
    for (char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0)
            guard.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(c))));
        else
            guard.push_back('_');
    }
    return guard;
}

void
checkDet01(const std::string &rel_path, const Scrubbed &sc,
           const std::vector<Tok> &toks, std::vector<Diag> &diags)
{
    if (startsWith(rel_path, "src/common/random."))
        return;
    for (const Tok &t : toks) {
        bool bad = false;
        std::string what;
        if (det01AlwaysBad().count(t.text) != 0) {
            bad = true;
            what = t.text;
        } else if (t.text == "time" || t.text == "clock") {
            if (nextNonSpace(sc.text, t.end) != '(')
                continue;
            const char prev = prevNonSpace(sc.text, t.pos);
            if (prev == '.' || prev == '>')
                continue; // member access, not libc
            const std::string qual = qualifierBefore(sc.text, t.pos);
            if (t.text == "clock") {
                // Bare `clock(` is almost always a local accessor
                // (Core::clock()); only the std/global form is libc.
                bad = qual == "std" || qual.empty();
            } else {
                bad = qual == "<none>" || qual == "std"
                      || qual.empty();
            }
            what = t.text + "()";
        }
        if (bad) {
            diags.push_back(Diag{
                rel_path, t.line, "DET-01",
                "non-deterministic source '" + what
                    + "'; use schedtask::Rng (common/random.hh) or a "
                      "simulated clock"});
        }
    }
}

void
checkSafe01(const std::string &rel_path, const Scrubbed &sc,
            const std::vector<Tok> &toks, std::vector<Diag> &diags)
{
    if (startsWith(rel_path, "src/common/parse_num."))
        return;
    for (const Tok &t : toks) {
        if (safe01Bad().count(t.text) == 0)
            continue;
        if (nextNonSpace(sc.text, t.end) != '(')
            continue;
        if (prevNonSpace(sc.text, t.pos) == '.'
            || prevNonSpace(sc.text, t.pos) == '>')
            continue;
        diags.push_back(Diag{
            rel_path, t.line, "SAFE-01",
            "'" + t.text
                + "' parses garbage silently; use "
                  "schedtask::parseUnsigned / parseDouble "
                  "(common/parse_num.hh)"});
    }
}

void
checkSafe02(const std::string &rel_path, const Scrubbed &sc,
            const std::vector<Tok> &toks, std::vector<Diag> &diags)
{
    if (!startsWith(rel_path, "src/common/logging.")) {
        for (const Tok &t : toks) {
            if (t.text != "abort")
                continue;
            if (nextNonSpace(sc.text, t.end) != '(')
                continue;
            const char prev = prevNonSpace(sc.text, t.pos);
            if (prev == '.' || prev == '>')
                continue;
            const std::string qual = qualifierBefore(sc.text, t.pos);
            if (qual != "<none>" && qual != "std" && !qual.empty())
                continue;
            diags.push_back(Diag{
                rel_path, t.line, "SAFE-02",
                "call SCHEDTASK_PANIC instead of abort() so the "
                "failure is logged with context"});
        }
    }
    // Redundant `virtual` on an `override` declaration, line-scoped.
    std::istringstream lines(sc.text);
    std::string ln;
    int line_no = 0;
    auto hasWord = [](const std::string &s, const std::string &w) {
        std::size_t at = 0;
        while ((at = s.find(w, at)) != std::string::npos) {
            const bool left = at == 0 || !isIdentChar(s[at - 1]);
            const std::size_t after = at + w.size();
            const bool right =
                after >= s.size() || !isIdentChar(s[after]);
            if (left && right)
                return true;
            at = after;
        }
        return false;
    };
    while (std::getline(lines, ln)) {
        ++line_no;
        if (hasWord(ln, "virtual") && hasWord(ln, "override")) {
            diags.push_back(Diag{
                rel_path, line_no, "SAFE-02",
                "redundant 'virtual' on an override declaration; "
                "keep only 'override'"});
        }
    }
}

void
checkDet02(const std::string &rel_path, const Scrubbed &sc,
           const std::vector<Tok> &toks, std::vector<Diag> &diags)
{
    if (!det02Applies(rel_path))
        return;

    // Names declared with an unordered type (variables, or functions
    // returning one — `rows()` in stats_table.hh is the archetype),
    // and names that are provably sorted sinks (ordered containers,
    // or the target of a std::sort call anywhere in the file).
    std::set<std::string> unordered_names;
    std::set<std::string> sorted_names;
    for (const Tok &t : toks) {
        if (unorderedTypes().count(t.text) != 0) {
            std::size_t p = t.end;
            if (nextNonSpace(sc.text, p) == '<')
                p = skipAngles(sc.text,
                               sc.text.find('<', p));
            const std::string name = declaredNameAfter(sc.text, p);
            if (!name.empty())
                unordered_names.insert(name);
        } else if (orderedTypes().count(t.text) != 0
                   && qualifierBefore(sc.text, t.pos) == "std") {
            std::size_t p = t.end;
            if (nextNonSpace(sc.text, p) == '<')
                p = skipAngles(sc.text,
                               sc.text.find('<', p));
            const std::string name = declaredNameAfter(sc.text, p);
            if (!name.empty())
                sorted_names.insert(name);
        } else if ((t.text == "sort" || t.text == "stable_sort")
                   && nextNonSpace(sc.text, t.end) == '(') {
            const std::size_t open = sc.text.find('(', t.end);
            const std::string arg =
                declaredNameAfter(sc.text, open + 1);
            if (!arg.empty())
                sorted_names.insert(arg);
        }
    }

    auto containsUnordered = [&](const std::string &text) {
        if (text.find("unordered_") != std::string::npos)
            return true;
        for (const Tok &t : tokenize(text))
            if (unordered_names.count(t.text) != 0)
                return true;
        return false;
    };
    auto feedsSortedSink = [&](const std::string &body) {
        for (const Tok &t : tokenize(body))
            if (sorted_names.count(t.text) != 0)
                return true;
        return false;
    };

    for (std::size_t ti = 0; ti < toks.size(); ++ti) {
        if (toks[ti].text != "for")
            continue;
        const Tok &t = toks[ti];
        if (nextNonSpace(sc.text, t.end) != '(')
            continue;
        const std::size_t open = sc.text.find('(', t.end);
        int depth = 0;
        std::size_t close = open;
        std::size_t colon = std::string::npos;
        for (std::size_t p = open; p < sc.text.size(); ++p) {
            if (sc.text[p] == '(')
                ++depth;
            else if (sc.text[p] == ')') {
                --depth;
                if (depth == 0) {
                    close = p;
                    break;
                }
            } else if (sc.text[p] == ':' && depth == 1
                       && colon == std::string::npos) {
                const bool dbl =
                    (p + 1 < sc.text.size() && sc.text[p + 1] == ':')
                    || (p > 0 && sc.text[p - 1] == ':');
                if (!dbl)
                    colon = p;
            }
        }
        if (close == open)
            continue;
        const std::string header =
            sc.text.substr(open + 1, close - open - 1);

        bool suspect = false;
        if (colon != std::string::npos) {
            const std::string range =
                sc.text.substr(colon + 1, close - colon - 1);
            suspect = containsUnordered(range);
        } else {
            // Classic iterator loop: `for (auto it = m.begin(); ...`.
            suspect = header.find("begin") != std::string::npos
                      && containsUnordered(header);
        }
        if (!suspect)
            continue;

        // Extract the loop body (brace block or single statement).
        std::size_t b = close + 1;
        while (b < sc.text.size()
               && std::isspace(static_cast<unsigned char>(
                      sc.text[b])) != 0)
            ++b;
        std::string body;
        if (b < sc.text.size() && sc.text[b] == '{') {
            int bd = 0;
            std::size_t e = b;
            for (; e < sc.text.size(); ++e) {
                if (sc.text[e] == '{')
                    ++bd;
                else if (sc.text[e] == '}') {
                    --bd;
                    if (bd == 0)
                        break;
                }
            }
            body = sc.text.substr(b, e - b + 1);
        } else {
            const std::size_t e = sc.text.find(';', b);
            body = sc.text.substr(
                b, e == std::string::npos ? std::string::npos
                                          : e - b + 1);
        }
        if (feedsSortedSink(body))
            continue;

        diags.push_back(Diag{
            rel_path, t.line, "DET-02",
            "iteration over an unordered container in an "
            "output-writing file; sort the keys first or feed a "
            "sorted container"});
    }
}

void
checkSty01(const std::string &rel_path, const Scrubbed &sc,
           std::vector<Diag> &diags)
{
    if (rel_path.size() < 3
        || rel_path.compare(rel_path.size() - 3, 3, ".hh") != 0)
        return;
    const std::string guard = expectedGuard(rel_path);
    const std::size_t ifndef = sc.text.find("#ifndef");
    if (ifndef == std::string::npos) {
        diags.push_back(Diag{rel_path, 1, "STY-01",
                             "missing include guard #ifndef " + guard});
        return;
    }
    int line = 1;
    for (std::size_t i = 0; i < ifndef; ++i)
        if (sc.text[i] == '\n')
            ++line;
    const std::string actual =
        declaredNameAfter(sc.text, ifndef + 7);
    if (actual != guard) {
        diags.push_back(Diag{rel_path, line, "STY-01",
                             "include guard '" + actual
                                 + "' should be '" + guard + "'"});
        return;
    }
    if (sc.text.find("#define " + guard) == std::string::npos) {
        diags.push_back(Diag{rel_path, line, "STY-01",
                             "include guard '" + guard
                                 + "' is never #defined"});
    }
}

void
checkSimd01(const std::string &rel_path, const std::vector<Tok> &toks,
            std::vector<Diag> &diags)
{
    // No file is exempt: the heatmap's word loops are plain C++ that
    // the compiler vectorizes for the build's -march, and
    // hand-written ISA paths would make results depend on the host.
    for (const Tok &t : toks) {
        const std::string &s = t.text;
        const bool intrinsic = startsWith(s, "_mm_")
            || startsWith(s, "_mm256_") || startsWith(s, "_mm512_")
            || startsWith(s, "__m128") || startsWith(s, "__m256")
            || startsWith(s, "__m512") || s == "immintrin"
            || startsWith(s, "__AVX") || startsWith(s, "__SSE");
        if (!intrinsic)
            continue;
        diags.push_back(Diag{
            rel_path, t.line, "SIMD-01",
            "vector intrinsic or ISA feature macro '" + s
                + "'; write a plain loop and let the compiler "
                  "vectorize it"});
    }
}

} // namespace

std::vector<Diag>
lintSource(const std::string &rel_path, const std::string &content)
{
    const Scrubbed sc = scrub(content, rel_path);
    const std::vector<Tok> toks = tokenize(sc.text);

    std::vector<Diag> raw;
    checkDet01(rel_path, sc, toks, raw);
    checkDet02(rel_path, sc, toks, raw);
    checkSafe01(rel_path, sc, toks, raw);
    checkSafe02(rel_path, sc, toks, raw);
    checkSty01(rel_path, sc, raw);
    checkSimd01(rel_path, toks, raw);

    std::vector<Diag> diags = sc.pragmaDiags;
    for (Diag &d : raw) {
        const auto it = sc.allows.find(d.line);
        if (it != sc.allows.end() && it->second.count(d.rule) != 0)
            continue;
        diags.push_back(std::move(d));
    }
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diag &a, const Diag &b) {
                         return a.line < b.line;
                     });
    return diags;
}

int
runLint(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err)
{
    namespace fs = std::filesystem;

    std::string root;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--root") {
            if (i + 1 >= args.size()) {
                err << "schedtask_lint: --root needs a directory\n";
                return 2;
            }
            root = args[++i];
        } else if (startsWith(args[i], "--")) {
            err << "schedtask_lint: unknown option " << args[i]
                << "\n"
                << "usage: schedtask_lint --root DIR | FILE...\n";
            return 2;
        } else {
            files.push_back(args[i]);
        }
    }

    if (!root.empty() && files.empty()) {
        static const std::array<const char *, 4> kSubdirs = {
            "src", "bench", "tools", "tests"};
        for (const char *sub : kSubdirs) {
            const fs::path dir = fs::path(root) / sub;
            std::error_code ec;
            if (!fs::is_directory(dir, ec))
                continue;
            for (const auto &entry :
                 fs::recursive_directory_iterator(dir)) {
                if (!entry.is_regular_file())
                    continue;
                const std::string ext =
                    entry.path().extension().string();
                if (ext == ".cc" || ext == ".hh")
                    files.push_back(entry.path().string());
            }
        }
        std::sort(files.begin(), files.end());
    }
    if (files.empty()) {
        err << "usage: schedtask_lint --root DIR | FILE...\n";
        return 2;
    }

    std::size_t total = 0;
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            err << "schedtask_lint: cannot read " << file << "\n";
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();

        std::string rel = file;
        if (!root.empty()) {
            std::error_code ec;
            const fs::path r =
                fs::relative(fs::path(file), fs::path(root), ec);
            if (!ec && !r.empty() && r.generic_string()[0] != '.')
                rel = r.generic_string();
        }
        for (const Diag &d : lintSource(rel, buf.str())) {
            out << d.str() << "\n";
            ++total;
        }
    }
    if (total != 0) {
        err << "schedtask_lint: " << total << " finding(s) in "
            << files.size() << " file(s)\n";
        return 1;
    }
    return 0;
}

} // namespace schedtask::lint
