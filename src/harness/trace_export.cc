#include "harness/trace_export.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace schedtask
{

namespace
{

/** JSON-safe number rendering (JSON has no NaN/Infinity). */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    // %g never emits a decimal point for integral values, which is
    // still valid JSON, so no fixup is needed.
    return buf;
}

std::string
jsonNum(std::uint64_t v)
{
    return std::to_string(v);
}

void
appendSchedReport(std::string &out, const SchedEpochReport &r)
{
    out += "\"sched\":{\"cosineSimilarity\":";
    out += jsonNum(r.cosineSimilarity);
    out += ",\"reallocated\":";
    out += r.reallocated ? "true" : "false";
    out += ",\"allocTypes\":" + jsonNum(std::uint64_t(r.allocTypes));
    out += ",\"allocCores\":" + jsonNum(std::uint64_t(r.allocCores));
    out += ",\"queuedSfs\":" + jsonNum(r.queuedSfs);
    out += ",\"placementMoves\":" + jsonNum(r.placementMoves);
    out += ",\"workSteals\":" + jsonNum(r.workSteals);
    out += ",\"heatmapSetBits\":" + jsonNum(r.heatmapSetBits);
    out += ",\"heatmapOverlap\":" + jsonNum(r.heatmapOverlap);
    out += ",\"rankingTau\":" + jsonNum(r.rankingTau);
    out += "}";
}

void
appendCoreInsts(std::string &out, const EpochCoreSample &core)
{
    out += "{\"idleCycles\":" + jsonNum(core.idleCycles)
        + ",\"insts\":{";
    for (unsigned cat = 0; cat < numSfCategories; ++cat) {
        if (cat != 0)
            out += ",";
        out += "\"";
        out += sfCategoryName(static_cast<SfCategory>(cat));
        out += "\":" + jsonNum(core.instsByCategory[cat]);
    }
    out += "}}";
}

} // namespace

std::string
epochSampleJson(const EpochSample &s)
{
    std::string out;
    out.reserve(256 + 96 * s.cores.size());
    out += "{\"epoch\":" + jsonNum(s.index);
    out += ",\"startCycle\":" + jsonNum(std::uint64_t(s.startCycle));
    out += ",\"endCycle\":" + jsonNum(std::uint64_t(s.endCycle));
    out += ",\"insts\":" + jsonNum(s.instsRetired);
    out += ",\"overheadInsts\":" + jsonNum(s.overheadInsts);
    out += ",\"migrations\":" + jsonNum(s.migrations);
    out += ",\"idleCycles\":" + jsonNum(s.idleCycles);
    out += ",\"irqs\":" + jsonNum(s.irqCount);
    out += ",\"l1iMissRate\":" + jsonNum(s.l1iMissRate);
    out += ",\"l2MissRate\":" + jsonNum(s.l2MissRate);
    out += ",";
    appendSchedReport(out, s.sched);
    out += ",\"cores\":[";
    for (std::size_t c = 0; c < s.cores.size(); ++c) {
        if (c != 0)
            out += ",";
        appendCoreInsts(out, s.cores[c]);
    }
    out += "]}";
    return out;
}

std::string
epochTraceJsonl(const std::vector<EpochSample> &samples)
{
    std::string out;
    for (const EpochSample &s : samples) {
        out += epochSampleJson(s);
        out += "\n";
    }
    return out;
}

std::string
chromeTraceJson(const std::vector<EpochSample> &samples,
                const std::vector<SfEvent> &events, double freq_ghz)
{
    // cycles -> microseconds of simulated time.
    const double us_per_cycle =
        freq_ghz > 0.0 ? 1.0 / (freq_ghz * 1e3) : 1.0;

    std::string out = "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &event) {
        if (!first)
            out += ",";
        first = false;
        out += event;
    };

    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"schedtask-sim\"}}");
    const std::size_t num_cores =
        samples.empty() ? 0 : samples.front().cores.size();
    for (std::size_t c = 0; c < num_cores; ++c) {
        emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
             "\"tid\":" + std::to_string(c)
             + ",\"args\":{\"name\":\"core " + std::to_string(c)
             + "\"}}");
    }

    for (const EpochSample &s : samples) {
        const double ts =
            static_cast<double>(s.startCycle) * us_per_cycle;
        const double dur = static_cast<double>(s.endCycle - s.startCycle)
            * us_per_cycle;

        for (std::size_t c = 0; c < s.cores.size(); ++c) {
            const EpochCoreSample &core = s.cores[c];
            // Name the slice after the dominant category so the
            // Perfetto timeline reads as "what ran where".
            unsigned best = 0;
            std::uint64_t best_insts = 0, total = 0;
            for (unsigned cat = 0; cat < numSfCategories; ++cat) {
                total += core.instsByCategory[cat];
                if (core.instsByCategory[cat] > best_insts) {
                    best_insts = core.instsByCategory[cat];
                    best = cat;
                }
            }
            const char *name = total == 0
                ? "idle"
                : sfCategoryName(static_cast<SfCategory>(best));
            std::string ev = "{\"name\":\"";
            ev += name;
            ev += "\",\"ph\":\"X\",\"cat\":\"epoch\",\"pid\":0,"
                  "\"tid\":" + std::to_string(c);
            ev += ",\"ts\":" + jsonNum(ts);
            ev += ",\"dur\":" + jsonNum(dur);
            ev += ",\"args\":{";
            for (unsigned cat = 0; cat < numSfCategories; ++cat) {
                ev += "\"";
                ev += sfCategoryName(static_cast<SfCategory>(cat));
                ev += "\":" + jsonNum(core.instsByCategory[cat]) + ",";
            }
            ev += "\"idleCycles\":" + jsonNum(core.idleCycles) + "}}";
            emit(ev);
        }

        // Counter tracks: the scheduler's time-series story.
        emit("{\"name\":\"cosineSimilarity\",\"ph\":\"C\",\"pid\":0,"
             "\"ts\":" + jsonNum(ts) + ",\"args\":{\"value\":"
             + jsonNum(s.sched.cosineSimilarity) + "}}");
        emit("{\"name\":\"migrations\",\"ph\":\"C\",\"pid\":0,"
             "\"ts\":" + jsonNum(ts) + ",\"args\":{\"value\":"
             + jsonNum(s.migrations) + "}}");
        emit("{\"name\":\"queuedSfs\",\"ph\":\"C\",\"pid\":0,"
             "\"ts\":" + jsonNum(ts) + ",\"args\":{\"value\":"
             + jsonNum(s.sched.queuedSfs) + "}}");
        emit("{\"name\":\"l1iMissRate\",\"ph\":\"C\",\"pid\":0,"
             "\"ts\":" + jsonNum(ts) + ",\"args\":{\"value\":"
             + jsonNum(s.l1iMissRate) + "}}");
    }

    // SuperFunction events: instant markers on their core's track.
    for (const SfEvent &e : events) {
        char type[24];
        std::snprintf(type, sizeof(type), "%llx",
                      static_cast<unsigned long long>(e.type.raw()));
        emit(std::string("{\"name\":\"") + sfEventKindName(e.kind)
             + "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":"
             + std::to_string(e.core) + ",\"ts\":"
             + jsonNum(static_cast<double>(e.when) * us_per_cycle)
             + ",\"args\":{\"thread\":"
             + (e.tid == invalidThread ? "null" : std::to_string(e.tid))
             + ",\"type\":\"" + type + "\",\"sf\":" + jsonNum(e.sfId)
             + "}}");
    }

    out += "]}";
    return out;
}

void
writeTextFile(const std::string &path, std::string_view content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open '" + path
                                 + "' for writing");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out)
        throw std::runtime_error("write to '" + path + "' failed");
}

namespace
{

/** Recursive-descent JSON well-formedness checker (RFC 8259). */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string_view text) : text_(text) {}

    bool
    check(std::string *error)
    {
        skipWs();
        if (!value()) {
            if (error != nullptr)
                *error = error_.empty()
                    ? "invalid JSON at offset " + std::to_string(pos_)
                    : error_;
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            if (error != nullptr)
                *error = "trailing garbage at offset "
                    + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                return fail("expected object key");
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    string()
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char esc = text_[pos_];
                if (esc == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++pos_;
                        if (pos_ >= text_.size()
                                || !isHex(text_[pos_])) {
                            return fail("bad \\u escape");
                        }
                    }
                } else if (std::string_view("\"\\/bfnrt").find(esc)
                           == std::string_view::npos) {
                    return fail("bad escape character");
                }
            }
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digit())
            return fail("expected digit");
        if (text_[pos_] == '0') {
            ++pos_;
        } else {
            while (digit())
                ++pos_;
        }
        if (peek() == '.') {
            ++pos_;
            if (!digit())
                return fail("expected fraction digits");
            while (digit())
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digit())
                return fail("expected exponent digits");
            while (digit())
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool
    digit() const
    {
        return pos_ < text_.size() && text_[pos_] >= '0'
            && text_[pos_] <= '9';
    }

    static bool
    isHex(char c)
    {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
            || (c >= 'A' && c <= 'F');
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    fail(const char *what)
    {
        if (error_.empty())
            error_ = std::string(what) + " at offset "
                + std::to_string(pos_);
        return false;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

bool
validateJson(std::string_view text, std::string *error)
{
    return JsonChecker(text).check(error);
}

bool
validateJsonLines(std::string_view text, std::string *error)
{
    std::size_t line_no = 0, start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view line = text.substr(start, end - start);
        ++line_no;
        if (!line.empty()) {
            std::string inner;
            if (!validateJson(line, &inner)) {
                if (error != nullptr)
                    *error = "line " + std::to_string(line_no) + ": "
                        + inner;
                return false;
            }
        }
        if (end == text.size())
            break;
        start = end + 1;
    }
    return true;
}

} // namespace schedtask
