/**
 * @file
 * Checkpoint serialization for Processor snapshots.
 *
 * Every checkpointed type names its dynamic members once, in
 *
 *     template <class V> void fields(V &v);
 *
 * calling the visitor operations below with each member and its load
 * bound. Two visitors walk that one list: FieldWriter appends each
 * member to a byte stream, and FieldReader reads the stream back into a
 * "donor" object -- a snapshot captured from a processor built with the
 * same configuration. Config-derived shapes (table sizes, ring
 * capacities, FU counts) are therefore already right in the donor and
 * are *verified* rather than resized; a mismatch means the payload came
 * from a different configuration. Values later used as indices are
 * range-checked against the donor's own sizes, so a malformed payload
 * can never cause an out-of-bounds access: it just fails the load, and
 * the checkpoint store falls back to recomputing the warmup. Both
 * visitors are plain templates; no field costs a virtual call.
 *
 * The format is a delta stream. Every scalar (integer, enum, boolean,
 * a double's IEEE-754 bit pattern) is one 64-bit value, coded as the
 * zigzag LEB128 varint of its difference from the previous scalar in
 * the stream (the first from 0); a run of zero differences is one
 * token, a 0x00 byte and the run's length as a varint. A string is its
 * length as a varint, then its raw bytes; it interrupts zero runs and
 * leaves the previous scalar as it was. Checkpoints are mostly arrays
 * of one repeated value -- 1024-slot reservation windows and per-
 * cluster "available at" cycles that are mostly neverCycle, which a
 * plain varint would spend 10 bytes on -- so most of a payload
 * collapses into short runs (docs/PERF.md, "The checkpoint codec",
 * has the per-component sizes).
 *
 * The encoding is canonical, and the reader accepts only the canonical
 * form: it rejects truncation, an overlong or over-64-bit varint, an
 * empty zero run, two runs in a row, a run still unfinished at a
 * string or at the end, a scalar too wide for its field, and trailing
 * bytes. So an accepted payload re-serializes to exactly its own
 * bytes. Every payload starts with snapshotFormatVersion; readers
 * reject any other value, which is the "stale checkpoint -> silent
 * recompute" lever (bump the constant whenever the encoding, the
 * serialized layout or the simulated state it captures changes
 * shape). Integrity (corruption, truncation) is the checkpoint store's
 * job -- it hashes the payload -- so the reader only needs to be
 * *safe* on bad input, returning failure instead of reading out of
 * bounds.
 *
 * A processor payload ends with two blocks that the donor's kind
 * decides: the trace source's, then the controller's. A generator-fed
 * processor's payload carries the generator's state there
 * (SyntheticWorkload::fields()), so a restore resumes the stream
 * instead of regenerating it; a replay-fed one carries only the
 * presence flag. Format 1 had no source block; format 2 wrote every
 * scalar fixed-width.
 *
 * Determinism: writing the same Snapshot twice produces identical
 * bytes. Nothing here consults the host (clocks, pointers, locales);
 * iteration orders are the containers' storage orders, and the only
 * ordered associative container serialized (interval-explore's
 * popularity map) iterates in key order by definition.
 */

#ifndef CLUSTERSIM_CORE_SNAPSHOT_IO_HH
#define CLUSTERSIM_CORE_SNAPSHOT_IO_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

namespace clustersim {

/**
 * Version stamp leading every serialized snapshot payload. Bump on any
 * layout change: old blobs then fail to load and are recomputed.
 * Format 2 added the trace source's block; format 3 is the delta
 * stream (see above).
 */
inline constexpr std::uint32_t snapshotFormatVersion = 3;

/** Append-only delta-stream sink (the encoding is described above). */
class SnapshotWriter
{
  public:
    void
    scalar(std::uint64_t v)
    {
        const std::uint64_t d = v - prev_;
        prev_ = v;
        if (d == 0) {
            zeros_++;
            return;
        }
        flushZeros();
        varint((d << 1) ^ (0 - (d >> 63))); // zigzag
    }

    void
    str(const std::string &s)
    {
        flushZeros();
        varint(s.size());
        buf_.append(s);
    }

    std::string
    take()
    {
        flushZeros();
        return std::move(buf_);
    }

  private:
    void
    varint(std::uint64_t v)
    {
        for (; v >= 0x80; v >>= 7)
            buf_.push_back(static_cast<char>(v | 0x80));
        buf_.push_back(static_cast<char>(v));
    }

    void
    flushZeros()
    {
        if (zeros_ == 0)
            return;
        buf_.push_back('\0');
        varint(zeros_);
        zeros_ = 0;
    }

    std::string buf_;
    std::uint64_t prev_ = 0;
    std::uint64_t zeros_ = 0;  ///< zero differences not yet written
};

/**
 * Bounds-checked delta-stream source that accepts only the canonical
 * encoding. Any malformed or out-of-range read latches the fail flag
 * and yields zeros; callers check ok() (and atEnd(), for trailing
 * bytes and an unfinished run) rather than every read.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &data)
        : cur_(reinterpret_cast<const unsigned char *>(data.data())),
          end_(cur_ + data.size())
    {}

    /** The next scalar; one above max is rejected. */
    std::uint64_t
    scalar(std::uint64_t max = ~std::uint64_t(0))
    {
        if (zeros_ != 0)
            zeros_--;
        else if (!token())
            return 0;
        return prev_ <= max ? prev_ : reject();
    }

    /** A string of at most max_len bytes; no zero run may span it. */
    std::string
    str(std::uint64_t max_len = 4096)
    {
        std::uint64_t n = 0;
        if (fail_ || zeros_ != 0 || !varint(n) || n > max_len ||
            n > static_cast<std::uint64_t>(end_ - cur_)) {
            reject();
            return {};
        }
        afterRun_ = false;
        std::string s(reinterpret_cast<const char *>(cur_),
                      static_cast<std::size_t>(n));
        cur_ += n;
        return s;
    }

    bool ok() const { return !fail_; }
    /** All bytes consumed, no run left over, and no read ever failed. */
    bool atEnd() const { return !fail_ && zeros_ == 0 && cur_ == end_; }
    void markFailed() { reject(); }

  private:
    /** Latch failure; the stream yields only zeros from here on. */
    std::uint64_t
    reject()
    {
        fail_ = true;
        zeros_ = 0;
        return 0;
    }

    /**
     * Apply the next token to prev_: a difference, or a zero run whose
     * first zero this read consumes. False on a malformed token.
     */
    bool
    token()
    {
        std::uint64_t t = 0;
        if (fail_ || !varint(t))
            return false;
        if (t != 0) {
            afterRun_ = false;
            prev_ += (t >> 1) ^ (0 - (t & 1)); // un-zigzag
            return true;
        }
        // A zero run: never empty, never split in two.
        if (!varint(zeros_) || zeros_ == 0 || afterRun_) {
            reject();
            return false;
        }
        afterRun_ = true;
        zeros_--;
        return true;
    }

    /** One minimal LEB128 varint of at most 64 bits. */
    bool
    varint(std::uint64_t &v)
    {
        const unsigned char *p = cur_;
        if (p != end_ && *p < 0x80) {
            v = *p;
            cur_ = p + 1;
            return true;
        }
        std::uint64_t x = 0;
        for (unsigned shift = 0; p != end_ && shift < 64; shift += 7) {
            const unsigned b = *p++;
            x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (b < 0x80) {
                // Not overlong (a last group of 0), not past bit 63.
                if (b == 0 || (shift == 63 && b > 1))
                    break;
                v = x;
                cur_ = p;
                return true;
            }
        }
        reject(); // truncated or malformed
        return false;
    }

    const unsigned char *cur_;
    const unsigned char *end_;
    std::uint64_t prev_ = 0;
    std::uint64_t zeros_ = 0;  ///< zero differences still to yield
    bool afterRun_ = false;    ///< the last token was a zero run
    bool fail_ = false;
};

/**
 * The writing visitor, and the reference for the operations a fields()
 * list may call. Each operation names one member and what the reader
 * accepts for it; the writer ignores the bounds and appends the value.
 * Every operation but a string writes scalars only, so the column on
 * the right is what the reader range-checks, not a width on the wire.
 *
 *   u64(x)            unsigned integer, any value that fits x
 *   u64(x, hi)        unsigned integer in [0, hi]
 *   u32(x[, hi])      32-bit value, optionally in [0, hi]
 *   u8(x, hi)         byte or enum in [0, hi]             (<= 0xff)
 *   i64(x)            std::int64_t, any value (two's complement bits)
 *   i64(x, lo, hi)    signed integer in [lo, hi]
 *   f64(x)            double, bit-exact (IEEE-754 bits)
 *   boolean(x)        strictly 0 or 1
 *   expect(x)         the donor's value, verbatim: a container size, a
 *                     counter width, the format version, controller
 *                     presence, or the controller's name (a string)
 *   check(cond)       cross-field constraint; writes nothing
 *   list(c, max, fn)  count up to max, then fn(element) each
 *   map(m, max, fn)   count up to max, then fn(key, value) each, keys
 *                     ascending
 *   optional(o, fn)   presence flag, then fn(value)
 *   v(name, x)        a named report field (ProcessorStats)
 */
class FieldWriter
{
  public:
    /**
     * Serialize obj. fields() takes its object by non-const reference
     * so one list serves both directions; the writer only reads it.
     */
    template <class T>
    void
    write(const T &obj)
    {
        const_cast<T &>(obj).fields(*this);
    }

    template <class T>
    void
    u64(T &x)
    {
        out_.scalar(static_cast<std::uint64_t>(x));
    }

    template <class T>
    void
    u64(T &x, std::uint64_t)
    {
        out_.scalar(static_cast<std::uint64_t>(x));
    }

    void u32(std::uint32_t &x, std::uint32_t = 0xffffffffu) { out_.scalar(x); }

    template <class T>
    void
    u8(T &x, unsigned)
    {
        out_.scalar(static_cast<std::uint8_t>(x));
    }

    void i64(std::int64_t &x) { out_.scalar(static_cast<std::uint64_t>(x)); }

    template <class T>
    void
    i64(T &x, std::int64_t, std::int64_t)
    {
        out_.scalar(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
    }

    void f64(double &x) { out_.scalar(std::bit_cast<std::uint64_t>(x)); }
    void boolean(bool &x) { out_.scalar(x ? 1 : 0); }

    template <class T>
    void
    expect(const T &x)
    {
        if constexpr (std::is_same_v<T, std::string>)
            out_.str(x);
        else if constexpr (std::is_same_v<T, bool>)
            out_.scalar(x ? 1 : 0);
        else if constexpr (sizeof(T) == 1)
            out_.scalar(static_cast<std::uint8_t>(x));
        else if constexpr (sizeof(T) == 4)
            out_.scalar(static_cast<std::uint32_t>(x));
        else
            out_.scalar(static_cast<std::uint64_t>(x));
    }

    void check(bool) {}

    template <class C, class Fn>
    void
    list(C &c, std::uint64_t, Fn &&elem)
    {
        out_.scalar(c.size());
        for (auto &e : c)
            elem(e);
    }

    template <class M, class Fn>
    void
    map(M &m, std::uint64_t, Fn &&entry)
    {
        out_.scalar(m.size());
        for (auto &[k, val] : m) {
            auto key = k;
            entry(key, val);
        }
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem)
    {
        out_.scalar(o.has_value() ? 1 : 0);
        if (o)
            elem(*o);
    }

    void operator()(const char *, std::uint64_t &x) { u64(x); }
    void operator()(const char *, double &x) { f64(x); }

    std::string take() { return out_.take(); }

  private:
    SnapshotWriter out_;
};

/**
 * The reading visitor: loads each member in place and latches failure
 * on any value outside its declared bound or its member's type, any
 * shape that differs from the donor's, a non-0/1 boolean, a map key
 * out of the writer's ascending order, a failed check() or a malformed
 * stream. A rejected value is not stored. Reading continues after a
 * failure but only ever yields zeros and empty lists, so the walk
 * stays bounded; callers test atEnd() once at the end, which also
 * rejects trailing bytes. A rejected load leaves the donor unusable.
 */
class FieldReader
{
  public:
    explicit FieldReader(const std::string &data) : in_(data) {}

    template <class T>
    void
    u64(T &x)
    {
        store(x, in_.scalar());
    }

    template <class T>
    void
    u64(T &x, std::uint64_t hi)
    {
        store(x, in_.scalar(hi));
    }

    void
    u32(std::uint32_t &x, std::uint32_t hi = 0xffffffffu)
    {
        x = static_cast<std::uint32_t>(in_.scalar(hi));
    }

    template <class T>
    void
    u8(T &x, unsigned hi)
    {
        x = static_cast<T>(in_.scalar(hi < 0xff ? hi : 0xff));
    }

    void i64(std::int64_t &x) { x = static_cast<std::int64_t>(in_.scalar()); }

    template <class T>
    void
    i64(T &x, std::int64_t lo, std::int64_t hi)
    {
        const auto v = static_cast<std::int64_t>(in_.scalar());
        if (v < lo || v > hi)
            in_.markFailed();
        else
            x = static_cast<T>(v);
    }

    void f64(double &x) { x = std::bit_cast<double>(in_.scalar()); }
    void boolean(bool &x) { x = in_.scalar(1) != 0; }

    template <class T>
    void
    expect(const T &x)
    {
        check(read<T>() == x);
    }

    void
    check(bool ok)
    {
        if (!ok)
            in_.markFailed();
    }

    template <class C, class Fn>
    void
    list(C &c, std::uint64_t max, Fn &&elem)
    {
        const std::uint64_t n = in_.scalar(max);
        c.clear();
        for (std::uint64_t i = 0; i < n && in_.ok(); ++i) {
            std::remove_reference_t<decltype(*c.begin())> e{};
            elem(e);
            c.push_back(e);
        }
    }

    template <class M, class Fn>
    void
    map(M &m, std::uint64_t max, Fn &&entry)
    {
        const std::uint64_t n = in_.scalar(max);
        m.clear();
        for (std::uint64_t i = 0; i < n && in_.ok(); ++i) {
            typename M::key_type k{};
            typename M::mapped_type val{};
            entry(k, val);
            check(m.empty() || m.rbegin()->first < k);
            m.emplace_hint(m.end(), k, val);
        }
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem)
    {
        if (in_.scalar(1) != 0) {
            T x{};
            elem(x);
            o = x;
        } else {
            o.reset();
        }
    }

    void operator()(const char *, std::uint64_t &x) { u64(x); }
    void operator()(const char *, double &x) { f64(x); }

    /** Every byte consumed and nothing rejected. */
    bool atEnd() const { return in_.atEnd(); }

  private:
    /** x = v, unless x's type cannot hold v: the writer never wrote it. */
    template <class T>
    void
    store(T &x, std::uint64_t v)
    {
        const auto t = static_cast<T>(v);
        if (static_cast<std::uint64_t>(t) != v)
            in_.markFailed();
        else
            x = t;
    }

    /** The next value in expect()'s encoding of T. */
    template <class T>
    T
    read()
    {
        if constexpr (std::is_same_v<T, std::string>)
            return in_.str();
        else if constexpr (std::is_same_v<T, bool>)
            return in_.scalar(1) != 0;
        else if constexpr (sizeof(T) == 1)
            return static_cast<T>(in_.scalar(0xff));
        else if constexpr (sizeof(T) == 4)
            return static_cast<T>(in_.scalar(0xffffffffu));
        else
            return static_cast<T>(in_.scalar());
    }

    SnapshotReader in_;
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_SNAPSHOT_IO_HH
