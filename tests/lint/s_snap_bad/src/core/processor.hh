// Miniature snapshot pipeline for the S004 self-test: ghostPending is
// never applied by restore() and must be reported; `cycle` is applied
// and must stay silent.
struct Processor {
    struct Snapshot;
    void restore(const Snapshot &s);
    int cycle_ = 0;
    int ghostPending_ = 0;
};

struct Processor::Snapshot {
    int cycle = 0;
    int ghostPending = 0;  // restore() never applies it

    template <class V>
    void
    fields(V &v)
    {
        v.u64(cycle);
        v.u64(ghostPending);
    }
};
