#include "explore/checkpoint.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace xps
{

std::string
formatHexDouble(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

bool
parseHexDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
}

namespace
{

constexpr const char *kMagic = "xps-checkpoint v1";

// --- writing ---------------------------------------------------------------

void
emitManifest(std::ostringstream &out, const CsvManifest &identity)
{
    out << kMagic << '\n';
    for (const auto &[key, value] : identity.entries)
        out << "m " << key << '=' << value << '\n';
    out << "endm\n";
}

/** Empty strings would vanish under tokenization; "-" stands in. */
std::string
encodeName(const std::string &name)
{
    if (name.empty())
        return "-";
    if (name.find_first_of(" \n") != std::string::npos ||
        name == "-") {
        fatal("checkpoint: unencodable name '%s'", name.c_str());
    }
    return name;
}

std::string
decodeName(const std::string &token)
{
    return token == "-" ? std::string() : token;
}

void
emitConfig(std::ostringstream &out, const char *tag,
           const CoreConfig &cfg)
{
    out << "config " << tag << ' ' << encodeName(cfg.name) << ' '
        << formatHexDouble(cfg.clockNs) << ' ' << cfg.width << ' '
        << cfg.robSize << ' ' << cfg.iqSize << ' ' << cfg.lsqSize
        << ' ' << cfg.schedDepth << ' ' << cfg.lsqDepth << ' '
        << cfg.l1Sets << ' ' << cfg.l1Assoc << ' ' << cfg.l1LineBytes
        << ' ' << cfg.l1Cycles << ' ' << cfg.l2Sets << ' '
        << cfg.l2Assoc << ' ' << cfg.l2LineBytes << ' ' << cfg.l2Cycles
        << '\n';
}

void
emitMemo(std::ostringstream &out,
         const std::vector<std::pair<std::string, double>> &memo)
{
    out << "memo.count " << memo.size() << '\n';
    for (const auto &[key, value] : memo)
        out << "memo " << key << ' ' << formatHexDouble(value) << '\n';
}

void
emitAnnealerState(std::ostringstream &out, const AnnealerState &st)
{
    char buf[96];
    out << "anneal.iter " << st.iteration << '\n';
    out << "anneal.temp " << formatHexDouble(st.temp) << '\n';
    std::snprintf(buf, sizeof(buf),
                  "anneal.rng %" PRIx64 " %" PRIx64 " %" PRIx64
                  " %" PRIx64 "\n",
                  st.rng[0], st.rng[1], st.rng[2], st.rng[3]);
    out << buf;
    out << "anneal.score " << formatHexDouble(st.currentScore) << '\n';
    emitConfig(out, "current", st.current);
    emitConfig(out, "best", st.result.best);
    out << "anneal.best.score " << formatHexDouble(st.result.bestScore)
        << '\n';
    out << "anneal.evals " << st.result.evaluations << '\n';
    out << "anneal.accepted " << st.result.accepted << '\n';
    out << "trace " << st.result.improvementTrace.size();
    for (const auto &[iter, score] : st.result.improvementTrace)
        out << ' ' << iter << ' ' << formatHexDouble(score);
    out << '\n';
}

// --- parsing ---------------------------------------------------------------

/** Sequential cursor over the whitespace-tokenized payload lines. */
class LineReader
{
  public:
    explicit LineReader(std::vector<std::vector<std::string>> lines)
        : lines_(std::move(lines))
    {
    }

    bool
    atEnd() const
    {
        return pos_ >= lines_.size();
    }

    /** Next line iff its first token equals `tag` and it carries
     *  exactly `args` further tokens; nullptr otherwise. */
    const std::vector<std::string> *
    expect(const char *tag, size_t args)
    {
        const auto *line = expectVariadic(tag);
        if (!line || line->size() != args + 1)
            return nullptr;
        return line;
    }

    /** Next line iff its first token equals `tag` (any arity). */
    const std::vector<std::string> *
    expectVariadic(const char *tag)
    {
        if (atEnd() || lines_[pos_].empty() ||
            lines_[pos_][0] != tag) {
            return nullptr;
        }
        return &lines_[pos_++];
    }

  private:
    std::vector<std::vector<std::string>> lines_;
    size_t pos_ = 0;
};

bool
parseU64(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return end == text.c_str() + text.size();
}

bool
parseHexU64(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 16);
    return end == text.c_str() + text.size();
}

template <typename T>
bool
parseInt(const std::string &text, T &out)
{
    uint64_t v;
    if (!parseU64(text, v))
        return false;
    out = static_cast<T>(v);
    return static_cast<uint64_t>(out) == v;
}

/**
 * Split the file into manifest + tokenized payload lines; false on a
 * missing magic, unterminated manifest, manifest mismatch, or missing
 * trailing "end" marker (truncation).
 */
bool
splitCheckpoint(const std::string &content, const CsvManifest &identity,
                LineReader &reader)
{
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line) || line != kMagic)
        return false;

    CsvManifest manifest;
    bool manifest_closed = false;
    bool saw_end = false;
    std::vector<std::vector<std::string>> payload;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        if (saw_end)
            return false; // data after the end marker
        if (!manifest_closed) {
            if (line == "endm") {
                manifest_closed = true;
                continue;
            }
            if (line.rfind("m ", 0) != 0)
                return false;
            const size_t eq = line.find('=', 2);
            if (eq == std::string::npos)
                return false;
            manifest.entries.emplace_back(line.substr(2, eq - 2),
                                          line.substr(eq + 1));
            continue;
        }
        if (line == "end") {
            saw_end = true;
            continue;
        }
        std::vector<std::string> tokens;
        std::istringstream tok(line);
        std::string t;
        while (tok >> t)
            tokens.push_back(std::move(t));
        payload.push_back(std::move(tokens));
    }
    if (!manifest_closed || !saw_end)
        return false;
    if (!(manifest == identity))
        return false;
    reader = LineReader(std::move(payload));
    return true;
}

bool
parseConfig(LineReader &reader, const char *tag, CoreConfig &out)
{
    const auto *line = reader.expect("config", 17);
    if (!line || (*line)[1] != tag)
        return false;
    CoreConfig cfg;
    cfg.name = decodeName((*line)[2]);
    bool ok = parseHexDouble((*line)[3], cfg.clockNs) &&
              parseInt((*line)[4], cfg.width) &&
              parseInt((*line)[5], cfg.robSize) &&
              parseInt((*line)[6], cfg.iqSize) &&
              parseInt((*line)[7], cfg.lsqSize) &&
              parseInt((*line)[8], cfg.schedDepth) &&
              parseInt((*line)[9], cfg.lsqDepth) &&
              parseU64((*line)[10], cfg.l1Sets) &&
              parseInt((*line)[11], cfg.l1Assoc) &&
              parseInt((*line)[12], cfg.l1LineBytes) &&
              parseInt((*line)[13], cfg.l1Cycles) &&
              parseU64((*line)[14], cfg.l2Sets) &&
              parseInt((*line)[15], cfg.l2Assoc) &&
              parseInt((*line)[16], cfg.l2LineBytes) &&
              parseInt((*line)[17], cfg.l2Cycles);
    if (!ok)
        return false;
    out = cfg;
    return true;
}

bool
parseMemo(LineReader &reader,
          std::vector<std::pair<std::string, double>> &out)
{
    const auto *count_line = reader.expect("memo.count", 1);
    uint64_t count;
    if (!count_line || !parseU64((*count_line)[1], count))
        return false;
    out.clear();
    out.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        const auto *line = reader.expect("memo", 2);
        double value;
        if (!line || !parseHexDouble((*line)[2], value))
            return false;
        out.emplace_back((*line)[1], value);
    }
    return true;
}

bool
parseAnnealerState(LineReader &reader, AnnealerState &out)
{
    AnnealerState st;
    const auto *line = reader.expect("anneal.iter", 1);
    if (!line || !parseU64((*line)[1], st.iteration))
        return false;
    line = reader.expect("anneal.temp", 1);
    if (!line || !parseHexDouble((*line)[1], st.temp))
        return false;
    line = reader.expect("anneal.rng", 4);
    if (!line)
        return false;
    for (int i = 0; i < 4; ++i) {
        if (!parseHexU64((*line)[1 + i], st.rng[i]))
            return false;
    }
    line = reader.expect("anneal.score", 1);
    if (!line || !parseHexDouble((*line)[1], st.currentScore))
        return false;
    if (!parseConfig(reader, "current", st.current) ||
        !parseConfig(reader, "best", st.result.best)) {
        return false;
    }
    line = reader.expect("anneal.best.score", 1);
    if (!line || !parseHexDouble((*line)[1], st.result.bestScore))
        return false;
    line = reader.expect("anneal.evals", 1);
    if (!line || !parseU64((*line)[1], st.result.evaluations))
        return false;
    line = reader.expect("anneal.accepted", 1);
    if (!line || !parseU64((*line)[1], st.result.accepted))
        return false;
    line = reader.expectVariadic("trace");
    if (!line || line->size() < 2)
        return false;
    uint64_t entries;
    if (!parseU64((*line)[1], entries) ||
        line->size() != 2 + 2 * entries) {
        return false;
    }
    st.result.improvementTrace.reserve(entries);
    for (uint64_t i = 0; i < entries; ++i) {
        uint64_t iter;
        double score;
        if (!parseU64((*line)[2 + 2 * i], iter) ||
            !parseHexDouble((*line)[3 + 2 * i], score)) {
            return false;
        }
        st.result.improvementTrace.emplace_back(iter, score);
    }
    out = std::move(st);
    return true;
}

const char *
phaseName(SuiteCheckpoint::Phase phase)
{
    switch (phase) {
      case SuiteCheckpoint::Phase::Anneal: return "anneal";
      case SuiteCheckpoint::Phase::FinalScored: return "final-scored";
      case SuiteCheckpoint::Phase::FinalAdopt: return "final-adopt";
    }
    panic("checkpoint: bad phase");
}

bool
parsePhase(const std::string &token, SuiteCheckpoint::Phase &out)
{
    for (auto phase : {SuiteCheckpoint::Phase::Anneal,
                       SuiteCheckpoint::Phase::FinalScored,
                       SuiteCheckpoint::Phase::FinalAdopt}) {
        if (token == phaseName(phase)) {
            out = phase;
            return true;
        }
    }
    return false;
}

} // namespace

std::string
serializeWorkloadCheckpoint(const WorkloadCheckpoint &ckpt,
                            const CsvManifest &identity)
{
    std::ostringstream out;
    emitManifest(out, identity);
    out << "round " << ckpt.round << '\n';
    out << "evals " << ckpt.evals << '\n';
    out << "adoptions " << ckpt.adoptions << '\n';
    emitAnnealerState(out, ckpt.anneal);
    emitMemo(out, ckpt.memo);
    out << "end\n";
    return out.str();
}

bool
parseWorkloadCheckpoint(const std::string &content,
                        const CsvManifest &identity,
                        WorkloadCheckpoint &out)
{
    LineReader reader({});
    if (!splitCheckpoint(content, identity, reader))
        return false;
    WorkloadCheckpoint ckpt;
    const auto *line = reader.expect("round", 1);
    if (!line || !parseInt((*line)[1], ckpt.round))
        return false;
    line = reader.expect("evals", 1);
    if (!line || !parseU64((*line)[1], ckpt.evals))
        return false;
    line = reader.expect("adoptions", 1);
    if (!line || !parseU64((*line)[1], ckpt.adoptions))
        return false;
    if (!parseAnnealerState(reader, ckpt.anneal) ||
        !parseMemo(reader, ckpt.memo) || !reader.atEnd()) {
        return false;
    }
    out = std::move(ckpt);
    return true;
}

std::string
serializeSuiteCheckpoint(const SuiteCheckpoint &ckpt,
                         const CsvManifest &identity)
{
    std::ostringstream out;
    emitManifest(out, identity);
    out << "round " << ckpt.round << '\n';
    out << "phase " << phaseName(ckpt.phase) << '\n';
    out << "adopt.index " << ckpt.adoptIndex << '\n';
    out << "final.ipt " << ckpt.finalIpt.size();
    for (double ipt : ckpt.finalIpt)
        out << ' ' << formatHexDouble(ipt);
    out << '\n';
    out << "workloads " << ckpt.workloads.size() << '\n';
    for (const auto &w : ckpt.workloads) {
        emitConfig(out, "current", w.current);
        out << "ipt " << formatHexDouble(w.currentIpt) << '\n';
        out << "evals " << w.evals << '\n';
        out << "adoptions " << w.adoptions << '\n';
        emitMemo(out, w.memo);
    }
    out << "end\n";
    return out.str();
}

bool
parseSuiteCheckpoint(const std::string &content,
                     const CsvManifest &identity, SuiteCheckpoint &out)
{
    LineReader reader({});
    if (!splitCheckpoint(content, identity, reader))
        return false;
    SuiteCheckpoint ckpt;
    const auto *line = reader.expect("round", 1);
    if (!line || !parseInt((*line)[1], ckpt.round))
        return false;
    line = reader.expect("phase", 1);
    if (!line || !parsePhase((*line)[1], ckpt.phase))
        return false;
    line = reader.expect("adopt.index", 1);
    if (!line || !parseU64((*line)[1], ckpt.adoptIndex))
        return false;
    line = reader.expectVariadic("final.ipt");
    if (!line || line->size() < 2)
        return false;
    uint64_t final_count;
    if (!parseU64((*line)[1], final_count) ||
        line->size() != 2 + final_count) {
        return false;
    }
    ckpt.finalIpt.reserve(final_count);
    for (uint64_t i = 0; i < final_count; ++i) {
        double ipt;
        if (!parseHexDouble((*line)[2 + i], ipt))
            return false;
        ckpt.finalIpt.push_back(ipt);
    }
    line = reader.expect("workloads", 1);
    uint64_t workloads;
    if (!line || !parseU64((*line)[1], workloads))
        return false;
    ckpt.workloads.reserve(workloads);
    for (uint64_t i = 0; i < workloads; ++i) {
        SuiteWorkloadState w;
        if (!parseConfig(reader, "current", w.current))
            return false;
        const auto *l = reader.expect("ipt", 1);
        if (!l || !parseHexDouble((*l)[1], w.currentIpt))
            return false;
        l = reader.expect("evals", 1);
        if (!l || !parseU64((*l)[1], w.evals))
            return false;
        l = reader.expect("adoptions", 1);
        if (!l || !parseU64((*l)[1], w.adoptions))
            return false;
        if (!parseMemo(reader, w.memo))
            return false;
        ckpt.workloads.push_back(std::move(w));
    }
    if (!reader.atEnd())
        return false;
    out = std::move(ckpt);
    return true;
}

} // namespace xps
