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
 * The format is deliberately dumb: fixed-width little-endian scalars,
 * length-prefixed containers, no alignment, no compression. Every
 * payload starts with snapshotFormatVersion; readers reject any other
 * value, which is the "stale checkpoint -> silent recompute" lever (bump
 * the constant whenever the serialized layout or the simulated state it
 * captures changes shape). Integrity (corruption, truncation) is the
 * checkpoint store's job -- it hashes the payload -- so the reader only
 * needs to be *safe* on bad input, returning failure instead of reading
 * out of bounds.
 *
 * Determinism: writing the same Snapshot twice produces identical
 * bytes. Nothing here consults the host (clocks, pointers, locales);
 * iteration orders are the containers' storage orders, and the only
 * ordered associative container serialized (interval-explore's
 * popularity map) iterates in key order by definition.
 */

#ifndef CLUSTERSIM_CORE_SNAPSHOT_IO_HH
#define CLUSTERSIM_CORE_SNAPSHOT_IO_HH

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

namespace clustersim {

/**
 * Version stamp leading every serialized snapshot payload. Bump on any
 * layout change: old blobs then fail to load and are recomputed.
 */
inline constexpr std::uint32_t snapshotFormatVersion = 1;

/** Append-only little-endian byte sink. */
class SnapshotWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        char b[4];
        for (int i = 0; i < 4; i++)
            b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf_.append(b, 4);
    }

    void
    u64(std::uint64_t v)
    {
        char b[8];
        for (int i = 0; i < 8; i++)
            b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf_.append(b, 8);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Doubles travel as their IEEE-754 bit pattern (exact). */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    std::string take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian byte source. Any out-of-bounds read
 * latches the fail flag and yields zeros; callers check ok() (and
 * atEnd(), for trailing garbage) rather than every read.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &data) : data_(data) {}

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        take(&v, 1);
        return v;
    }

    std::uint32_t
    u32()
    {
        unsigned char b[4] = {};
        if (!take(b, 4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        unsigned char b[8] = {};
        if (!take(b, 8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    /** Strict: any encoding other than 0/1 is corruption. */
    bool
    boolean()
    {
        std::uint8_t v = u8();
        if (v > 1)
            fail_ = true;
        return v == 1;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str(std::uint64_t max_len = 4096)
    {
        std::uint64_t n = u64();
        if (n > max_len || n > data_.size() - pos_) {
            fail_ = true;
            return {};
        }
        std::string s = data_.substr(pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    bool ok() const { return !fail_; }
    /** All bytes consumed and no read ever failed. */
    bool atEnd() const { return !fail_ && pos_ == data_.size(); }
    void markFailed() { fail_ = true; }

  private:
    bool
    take(void *out, std::size_t n)
    {
        if (fail_ || n > data_.size() - pos_) {
            fail_ = true;
            return false;
        }
        std::memcpy(out, data_.data() + pos_, n);
        pos_ += n;
        return true;
    }

    const std::string &data_;
    std::size_t pos_ = 0;
    bool fail_ = false;
};

/**
 * The writing visitor, and the reference for the operations a fields()
 * list may call. Each operation names one member and what the reader
 * accepts for it; the writer ignores the bounds and appends the value.
 *
 *   u64(x)            unsigned integer, any value          (u64)
 *   u64(x, hi)        unsigned integer in [0, hi]          (u64)
 *   u32(x[, hi])      32-bit value, optionally in [0, hi]  (u32)
 *   u8(x, hi)         byte or enum in [0, hi]              (u8)
 *   i64(x)            std::int64_t, any value              (i64)
 *   i64(x, lo, hi)    signed integer in [lo, hi]           (i64)
 *   f64(x)            double, bit-exact                    (u64)
 *   boolean(x)        strictly 0 or 1                      (u8)
 *   expect(x)         the donor's value, verbatim: a container size
 *                     (u64), a counter width (u8), the format version
 *                     (u32), controller presence (u8) or name (string)
 *   check(cond)       cross-field constraint; writes nothing
 *   list(c, max, fn)  up to max elements, fn(element) each (u64 + ...)
 *   map(m, max, fn)   up to max entries, fn(key, value) each
 *   optional(o, fn)   presence flag, then fn(value)        (u8 + ...)
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
        out_.u64(x);
    }

    template <class T>
    void
    u64(T &x, std::uint64_t)
    {
        out_.u64(x);
    }

    void u32(std::uint32_t &x, std::uint32_t = 0xffffffffu) { out_.u32(x); }

    template <class T>
    void
    u8(T &x, unsigned)
    {
        out_.u8(static_cast<std::uint8_t>(x));
    }

    void i64(std::int64_t &x) { out_.i64(x); }

    template <class T>
    void
    i64(T &x, std::int64_t, std::int64_t)
    {
        out_.i64(x);
    }

    void f64(double &x) { out_.f64(x); }
    void boolean(bool &x) { out_.boolean(x); }

    template <class T>
    void
    expect(const T &x)
    {
        if constexpr (std::is_same_v<T, std::string>)
            out_.str(x);
        else if constexpr (std::is_same_v<T, bool>)
            out_.boolean(x);
        else if constexpr (sizeof(T) == 1)
            out_.u8(x);
        else if constexpr (sizeof(T) == 4)
            out_.u32(x);
        else
            out_.u64(x);
    }

    void check(bool) {}

    template <class C, class Fn>
    void
    list(C &c, std::uint64_t, Fn &&elem)
    {
        out_.u64(c.size());
        for (auto &e : c)
            elem(e);
    }

    template <class M, class Fn>
    void
    map(M &m, std::uint64_t, Fn &&entry)
    {
        out_.u64(m.size());
        for (auto &[k, val] : m) {
            auto key = k;
            entry(key, val);
        }
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem)
    {
        out_.boolean(o.has_value());
        if (o)
            elem(*o);
    }

    void operator()(const char *, std::uint64_t &x) { u64(x); }
    void operator()(const char *, double &x) { f64(x); }

    std::size_t size() const { return out_.size(); }
    std::string take() { return out_.take(); }

  private:
    SnapshotWriter out_;
};

/**
 * The reading visitor: loads each member in place and latches failure
 * on any value outside its declared bound, any shape that differs from
 * the donor's, a non-0/1 boolean, a failed check() or a short read. A
 * rejected value is not stored. Reading continues after a failure but
 * only ever yields zeros and empty lists, so the walk stays bounded;
 * callers test atEnd() once at the end, which also rejects trailing
 * bytes. A rejected load leaves the donor unusable.
 */
class FieldReader
{
  public:
    explicit FieldReader(const std::string &data) : in_(data) {}

    template <class T>
    void
    u64(T &x)
    {
        x = static_cast<T>(in_.u64());
    }

    template <class T>
    void
    u64(T &x, std::uint64_t hi)
    {
        std::uint64_t v = in_.u64();
        if (v > hi)
            in_.markFailed();
        else
            x = static_cast<T>(v);
    }

    void
    u32(std::uint32_t &x, std::uint32_t hi = 0xffffffffu)
    {
        std::uint32_t v = in_.u32();
        if (v > hi)
            in_.markFailed();
        else
            x = v;
    }

    template <class T>
    void
    u8(T &x, unsigned hi)
    {
        std::uint8_t v = in_.u8();
        if (v > hi)
            in_.markFailed();
        else
            x = static_cast<T>(v);
    }

    void i64(std::int64_t &x) { x = in_.i64(); }

    template <class T>
    void
    i64(T &x, std::int64_t lo, std::int64_t hi)
    {
        std::int64_t v = in_.i64();
        if (v < lo || v > hi)
            in_.markFailed();
        else
            x = static_cast<T>(v);
    }

    void f64(double &x) { x = in_.f64(); }
    void boolean(bool &x) { x = in_.boolean(); }

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
        std::uint64_t n = in_.u64();
        check(n <= max);
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
        std::uint64_t n = in_.u64();
        check(n <= max);
        m.clear();
        for (std::uint64_t i = 0; i < n && in_.ok(); ++i) {
            typename M::key_type k{};
            typename M::mapped_type val{};
            entry(k, val);
            m[k] = val;
        }
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem)
    {
        if (in_.boolean()) {
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
    /** The next value in expect()'s encoding of T. */
    template <class T>
    T
    read()
    {
        if constexpr (std::is_same_v<T, std::string>)
            return in_.str();
        else if constexpr (std::is_same_v<T, bool>)
            return in_.boolean();
        else if constexpr (sizeof(T) == 1)
            return in_.u8();
        else if constexpr (sizeof(T) == 4)
            return in_.u32();
        else
            return in_.u64();
    }

    SnapshotReader in_;
};

} // namespace clustersim

#endif // CLUSTERSIM_CORE_SNAPSHOT_IO_HH
