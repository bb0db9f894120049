// Fully covered miniature snapshot pipeline: every field is applied by
// restore() and listed in fields(), and the one intentionally
// transient field carries written S004 and F001 suppressions.
struct Processor {
    struct Snapshot;
    void restore(const Snapshot &s);
    int cycle_ = 0;
    int pendingTarget_ = 0;
};

struct Processor::Snapshot {
    int cycle = 0;
    int pendingTarget = 0;
    // simlint-ignore(S004, F001): derived debug scratch, recomputed on
    // restore; deliberately outside the serialized state.
    int debugScratch = 0;

    template <class V>
    void
    fields(V &v)
    {
        v.u64(cycle);
        v.u64(pendingTarget);
    }
};
