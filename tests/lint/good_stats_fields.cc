// simlint fixture: report-shaped types name every statistic in their
// fields() list, including members listed only inside a conditional
// block and a nested counter that lists its own value; no F rule may
// fire. Member functions are not data members.
#include <cstdint>
#include <vector>

struct Counter {
    std::uint64_t value = 0;

    template <class V>
    void
    fields(V &v)
    {
        v.u64(value);
    }
};

struct RunStats {
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    double activeSum = 0;
    Counter hits;

    double ipc() const { return cycles ? double(committed) / cycles : 0; }

    template <class V>
    void
    fields(V &v)
    {
        v("cycles", cycles);
        v("committed", committed);
        v("activeSum", activeSum);
        v("hits", hits);
    }
};

struct Report {
    double ipc = 0;
    std::uint64_t interval = 0;
    std::vector<double> series;

    template <class V>
    void
    fields(V &v)
    {
        v("ipc", ipc);
        if (!series.empty()) {
            v("interval", interval);
            v("series", series);
        }
    }
};
