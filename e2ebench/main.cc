/**
 * @file
 * e2ebench: times the clustersim library and the sweepd daemon from the
 * outside, one workload per invocation.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *            --workdir DIR [--spans FILE] [--tiny]
 *
 * Workloads: tournament-cold, warm-fig3, served-mixed (see README.md).
 * --workdir must be a fresh directory the caller removes afterwards.
 * Prints one JSON object on its last stdout line: the metrics (with
 * units), attempted/failed counts, the sha256 of the timing-free report,
 * any correctness errors, and the build's host description. Exit 0 when
 * every output check passed, 1 when one failed, 2 on usage errors.
 * The wrapper `run.py` builds this program and turns that object into
 * the benchmark's result line.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "bench.hh"
#include "common/json.hh"
#include "common/logging.hh"

using namespace clustersim;

namespace e2ebench {

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks.
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MB
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::error_code ec;
    std::uint64_t bytes = 0;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            bytes += it->file_size(ec);
    }
    return bytes;
}

bool
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << data;
    return static_cast<bool>(f);
}

void
SpanTotals::addLane(const SpanLane &lane)
{
    const std::vector<Span> &s = lane.spans();
    std::vector<double> child(s.size(), 0.0);
    for (const Span &sp : s)
        if (sp.parent >= 0)
            child[static_cast<std::size_t>(sp.parent)] +=
                (sp.endNs - sp.startNs) * 1e-9;
    for (std::size_t i = 0; i < s.size(); i++) {
        double d = (s[i].endNs - s[i].startNs) * 1e-9;
        seconds[s[i].name] += d;
        selfSeconds[s[i].name] += d - child[i];
    }
}

double
SpanTotals::sec(const std::string &n) const
{
    auto it = seconds.find(n);
    return it == seconds.end() ? 0.0 : it->second;
}

double
SpanTotals::self(const std::string &n) const
{
    auto it = selfSeconds.find(n);
    return it == selfSeconds.end() ? 0.0 : it->second;
}

void
zeroLayerMetrics(Metrics &m)
{
    static const std::pair<const char *, const char *> layer[] = {
        {"workload.gen_s", "s"},
        {"workload.gen_ns_per_op", "ns/op"},
        {"core.construct_s", "s"},
        {"core.warmup_s", "s"},
        {"core.measure_s", "s"},
        {"core.teardown_s", "s"},
        {"core.ns_per_inst", "ns/inst"},
        {"core.ns_per_cycle", "ns/cycle"},
        {"core.committed", "inst"},
        {"core.sim_cycles", "cycles"},
        {"core.cpi_stall_iq", "cycles/inst"},
        {"core.cpi_stall_reg", "cycles/inst"},
        {"core.cpi_stall_lsq", "cycles/inst"},
        {"core.cpi_stall_rob", "cycles/inst"},
        {"core.cpi_stall_empty", "cycles/inst"},
        {"interconnect.reg_transfers_per_inst", "xfers/inst"},
        {"memory.l1_miss_rate", "ratio"},
        {"predictor.mispredict_interval", "inst"},
        {"reconfig.reconfigurations", "count"},
        {"reconfig.avg_active_clusters", "clusters"},
        {"reconfig.factory_s", "s"},
        {"reconfig.oracle_probe_s", "s"},
        {"sweep.plan_s", "s"},
        {"sweep.worker_util", "ratio"},
        {"ckpt.snapshot_s", "s"},
        {"ckpt.serialize_s", "s"},
        {"ckpt.store_s", "s"},
        {"ckpt.load_s", "s"},
        {"ckpt.deserialize_s", "s"},
        {"ckpt.restore_s", "s"},
        {"ckpt.bytes_per_point", "bytes"},
        {"ckpt.hit_ratio", "ratio"},
        {"ckpt.corrupt", "count"},
        {"ckpt.store_failures", "count"},
        {"report.assemble_s", "s"},
        {"report.bytes", "bytes"},
        {"serve.accept_ms_p50", "ms"},
        {"serve.stream_ms_p50", "ms"},
        {"serve.done_ms_p50", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.points_computed", "count"},
        {"serve.points_merged", "count"},
        {"serve.warm_hits", "count"},
        {"serve.points_failed", "count"},
        {"serve.jobs_rejected", "count"},
        {"trace_overhead_frac", "ratio"},
        {"trace.coverage", "ratio"},
        {"failed_frac", "ratio"},
    };
    for (const auto &[name, unit] : layer)
        m.set(name, 0.0, unit);
}

namespace {

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--spans FILE] [--tiny]\n"
                 "workloads: tournament-cold warm-fig3 served-mixed\n",
                 prog);
    return 2;
}

void
writeSpans(const std::string &path, const Outcome &out)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "e2ebench-spans-v1");
    w.key("lanes").beginArray();
    for (const SpanLane &lane : out.lanes) {
        w.beginObject();
        w.field("lane", lane.lane());
        // [name, start_ns, end_ns, parent index in lane (-1 = root), id]
        w.key("spans").beginArray();
        for (const Span &s : lane.spans()) {
            w.beginArray();
            w.value(s.name);
            w.value(static_cast<std::int64_t>(s.startNs));
            w.value(static_cast<std::int64_t>(s.endNs));
            w.value(s.parent);
            w.value(s.id);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    writeFile(path, w.str() + "\n");
}

std::string
resultJson(const RunConfig &cfg, const Outcome &out)
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", cfg.workload);
    w.field("seed", cfg.seed);
    w.field("trace", cfg.trace);
    w.key("host").beginObject();
    w.field("nproc",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.field("compiler", std::string(__VERSION__));
    w.field("build_type", E2EBENCH_BUILD_TYPE);
    w.field("lto", E2EBENCH_LTO);
    w.endObject();
    w.field("report_sha256", out.reportSha256);
    w.field("attempted", out.attempted);
    w.field("failed", out.failed);
    w.key("errors").beginArray();
    for (const std::string &e : out.errors)
        w.value(e);
    w.endArray();
    w.key("samples").beginObject();
    for (const auto &[k, v] : out.samples)
        w.field(k, v);
    w.endObject();
    w.key("metrics").beginObject();
    for (const std::string &name : out.metrics.order()) {
        const auto &[value, unit] = out.metrics.at(name);
        w.key(name).beginObject();
        w.field("value", value);
        w.field("unit", unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace

} // namespace e2ebench

int
main(int argc, char **argv)
{
    using namespace e2ebench;
    RunConfig cfg;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(usage(argv[0]));
            return argv[++i];
        };
        if (arg == "--workload")
            cfg.workload = need();
        else if (arg == "--seed")
            cfg.seed = std::strtoull(need().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::atof(need().c_str());
        else if (arg == "--trace")
            cfg.trace = need() == "1";
        else if (arg == "--workdir")
            cfg.workdir = need();
        else if (arg == "--spans")
            cfg.spansPath = need();
        else if (arg == "--tiny")
            cfg.tiny = true;
        else
            return usage(argv[0]);
    }
    if (cfg.workdir.empty() || cfg.seconds <= 0)
        return usage(argv[0]);

    Outcome out;
    try {
        if (cfg.workload == "tournament-cold")
            out = runTournamentCold(cfg);
        else if (cfg.workload == "warm-fig3")
            out = runWarmFig3(cfg);
        else if (cfg.workload == "served-mixed")
            out = runServedMixed(cfg);
        else
            return usage(argv[0]);
    } catch (const SimError &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }

    if (cfg.trace && !cfg.spansPath.empty())
        writeSpans(cfg.spansPath, out);
    std::printf("%s\n", resultJson(cfg, out).c_str());
    std::fflush(stdout);
    return out.errors.empty() && out.failed == 0 ? 0 : 1;
}
