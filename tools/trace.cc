/**
 * @file
 * Observability CLI: run one benchmark under a reconfiguration
 * controller with a TraceSink installed and export what the sink saw.
 *
 *   trace --bench gzip [--controller explore] [--out trace.json]
 *         [--series series.json] [--series-csv series.csv]
 *
 * Outputs:
 *   --out         Chrome trace-event / Perfetto JSON (open it in
 *                 ui.perfetto.dev or chrome://tracing)
 *   --series      per-interval time series as JSON
 *   --series-csv  the same series as CSV
 *
 * It requires a build configured with -DCLUSTERSIM_OBSERVE=ON and exits
 * with an error otherwise (the run would record milestones but no
 * pipeline events). The sink is the run's one observer, so the run is
 * not invariant-checked. See docs/OBSERVABILITY.md for the event
 * catalog.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/json.hh"
#include "common/parse.hh"
#include "sim/presets.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

using namespace clustersim;

namespace {

int
usage(const char *prog, int code)
{
    std::fprintf(stderr,
                 "usage: %s --bench NAME [options]\n"
                 "\n"
                 "Traces one run; needs a build configured with "
                 "-DCLUSTERSIM_OBSERVE=ON.\n"
                 "\n"
                 "options:\n"
                 "  --bench NAME       benchmark model (see --list)\n"
                 "  --controller NAME  explore (default), ilp, "
                 "finegrain, subroutine, static\n"
                 "  --clusters N       hardware clusters (default 16)\n"
                 "  --grid             4x4 grid interconnect instead "
                 "of ring\n"
                 "  --dcache           decentralized L1 (Section 5)\n"
                 "  --warmup N         warmup instructions (default "
                 "%llu)\n"
                 "  --measure N        measured instructions (default "
                 "%llu)\n"
                 "  --interval N       time-series interval, "
                 "instructions (default 10000)\n"
                 "  --sample-period N  occupancy sample period, cycles "
                 "(default 256)\n"
                 "  --ring N           trace ring capacity, events "
                 "(default 1<<20)\n"
                 "  --out FILE         Perfetto JSON path (default "
                 "trace-BENCH.json; '-' = stdout)\n"
                 "  --series FILE      time-series JSON path\n"
                 "  --series-csv FILE  time-series CSV path\n"
                 "  --list             list benchmark models\n",
                 prog,
                 static_cast<unsigned long long>(defaultWarmup),
                 static_cast<unsigned long long>(defaultMeasure));
    return code;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::ofstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
        return false;
    }
    f << text;
    return f.good();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench;
    std::string controller_name = "explore";
    std::string out_path;
    std::string series_path;
    std::string series_csv_path;
    int clusters = 16;
    bool grid = false;
    bool dcache = false;
    std::uint64_t warmup = defaultWarmup;
    std::uint64_t measure = defaultMeasure;
    std::uint64_t interval = 10000;
    std::uint64_t sample_period = 256;
    std::size_t ring = 1 << 20;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", flag);
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--list") {
            for (const std::string &n : benchmarkNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (arg == "--bench") {
            bench = need("--bench");
        } else if (arg == "--controller") {
            controller_name = need("--controller");
        } else if (arg == "--clusters") {
            clusters =
                flagNumber("--clusters", need("--clusters"), maxClusters);
        } else if (arg == "--grid") {
            grid = true;
        } else if (arg == "--dcache") {
            dcache = true;
        } else if (arg == "--warmup") {
            warmup = flagNumber<std::uint64_t>("--warmup", need("--warmup"));
        } else if (arg == "--measure") {
            measure =
                flagNumber<std::uint64_t>("--measure", need("--measure"));
        } else if (arg == "--interval") {
            interval =
                flagNumber<std::uint64_t>("--interval", need("--interval"));
        } else if (arg == "--sample-period") {
            sample_period = flagNumber<std::uint64_t>("--sample-period",
                                                      need("--sample-period"));
        } else if (arg == "--ring") {
            ring = flagNumber<std::size_t>("--ring", need("--ring"));
        } else if (arg == "--out") {
            out_path = need("--out");
        } else if (arg == "--series") {
            series_path = need("--series");
        } else if (arg == "--series-csv") {
            series_csv_path = need("--series-csv");
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (!CLUSTERSIM_OBSERVE_ENABLED) {
        std::fprintf(stderr,
                     "trace: this build has the observation hooks "
                     "compiled out; reconfigure with "
                     "-DCLUSTERSIM_OBSERVE=ON\n");
        return 2;
    }
    if (bench.empty()) {
        std::fprintf(stderr, "--bench is required\n");
        return usage(argv[0], 2);
    }
    if (interval == 0 || sample_period == 0 || ring == 0) {
        std::fprintf(stderr, "--interval, --sample-period and --ring "
                             "must be positive\n");
        return 2;
    }
    if (out_path.empty())
        out_path = "trace-" + bench + ".json";

    InterconnectKind kind =
        grid ? InterconnectKind::Grid : InterconnectKind::Ring;
    ProcessorConfig cfg = clusteredConfig(clusters, kind, dcache);

    std::unique_ptr<ReconfigController> controller;
    if (controller_name == "explore") {
        controller = makeExploreController();
    } else if (controller_name == "ilp") {
        controller = makeIlpController(10000);
    } else if (controller_name == "finegrain") {
        controller = makeFinegrainController();
    } else if (controller_name == "subroutine") {
        controller = makeSubroutineController();
    } else if (controller_name == "static") {
        controller = nullptr;
    } else {
        std::fprintf(stderr, "unknown controller %s\n",
                     controller_name.c_str());
        return usage(argv[0], 2);
    }

    TraceSink sink(ring, sample_period);
    sink.enableTimeSeries(interval);
    SimResult res;
    {
        ObserverScope scope(sink);
        res = runSimulation(cfg, makeBenchmark(bench),
                            controller.get(), warmup, measure);
    }

    std::fprintf(stderr,
                 "trace: %s on %s under %s: IPC %.3f, %llu events "
                 "recorded (%llu dropped by the %zu-event ring), %zu "
                 "series rows\n",
                 bench.c_str(), cfg.name.c_str(),
                 controller ? controller->name().c_str() : "static",
                 res.ipc,
                 static_cast<unsigned long long>(sink.recorded()),
                 static_cast<unsigned long long>(sink.dropped()),
                 sink.capacity(), res.timeSeries.size());

    if (!writeFile(out_path, perfettoJson(sink)))
        return 1;
    if (out_path != "-")
        std::fprintf(stderr, "trace: wrote %s (load it in "
                             "ui.perfetto.dev)\n", out_path.c_str());

    if (!series_path.empty()) {
        JsonWriter w;
        w.beginObject();
        w.field("schema", "clustersim-timeseries-v1");
        w.field("benchmark", res.benchmark);
        w.field("config", res.config);
        w.field("controller",
                controller ? controller->name() : "static");
        w.field("interval", res.timeSeriesInterval);
        w.key("series");
        timeSeriesJson(w, res.timeSeries);
        w.endObject();
        if (!writeFile(series_path, w.str()))
            return 1;
        if (series_path != "-")
            std::fprintf(stderr, "trace: wrote %s\n",
                         series_path.c_str());
    }
    if (!series_csv_path.empty()) {
        if (!writeFile(series_csv_path, timeSeriesCsv(res.timeSeries)))
            return 1;
        if (series_csv_path != "-")
            std::fprintf(stderr, "trace: wrote %s\n",
                         series_csv_path.c_str());
    }
    return 0;
}
