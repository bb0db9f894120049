/**
 * @file
 * Small-buffer vector for trivially copyable payloads.
 *
 * The simulation hot path keeps short, usually-tiny lists per in-flight
 * instruction (dependence waiters, per-store load wake lists). A
 * std::vector pays one heap allocation per list the first time it is
 * used; across millions of dispatched instructions that dominates the
 * allocator profile. SmallVec stores the first N elements inline and
 * only touches the heap when a list actually outgrows its inline
 * buffer, and clear() keeps any spilled capacity so steady-state reuse
 * (ROB ring slots) is allocation-free.
 */

#ifndef CLUSTERSIM_COMMON_SMALL_VEC_HH
#define CLUSTERSIM_COMMON_SMALL_VEC_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

// simlint: hot-path

namespace clustersim {

template <typename T, std::size_t N>
class SmallVec
{
    static_assert(N >= 1, "inline capacity must be at least 1");
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVec is restricted to trivially copyable types");

  public:
    // simlint: cold-begin -- special members run at construction,
    // transfer, and teardown, not on the steady-state path
    SmallVec() = default;

    SmallVec(const SmallVec &o) { assign(o); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o) {
            size_ = 0;
            assign(o);
        }
        return *this;
    }

    SmallVec(SmallVec &&o) noexcept
    {
        if (o.heap_) {
            heap_ = o.heap_;
            cap_ = o.cap_;
            size_ = o.size_;
            o.heap_ = nullptr;
            o.cap_ = N;
            o.size_ = 0;
        } else {
            assign(o);
            o.size_ = 0;
        }
    }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        if (this != &o) {
            delete[] heap_;
            heap_ = nullptr;
            cap_ = N;
            size_ = 0;
            if (o.heap_) {
                heap_ = o.heap_;
                cap_ = o.cap_;
                size_ = o.size_;
                o.heap_ = nullptr;
                o.cap_ = N;
                o.size_ = 0;
            } else {
                assign(o);
                o.size_ = 0;
            }
        }
        return *this;
    }

    ~SmallVec() { delete[] heap_; }
    // simlint: cold-end

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow();
        data()[size_++] = v;
    }

    /** Drop all elements; spilled capacity is retained for reuse. */
    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }
    bool spilled() const { return heap_ != nullptr; }

    T *data() { return heap_ ? heap_ : inline_; }
    const T *data() const { return heap_ ? heap_ : inline_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

  private:
    // simlint: cold-begin -- assign() serves the copy special members;
    // grow() is the documented inline-capacity spill: it runs at most
    // log2(peak) times per slot and clear() keeps the spilled storage,
    // so steady-state reuse never re-enters it
    void
    assign(const SmallVec &o)
    {
        if (o.size_ > cap_) {
            delete[] heap_;
            heap_ = new T[o.size_];
            cap_ = static_cast<std::uint32_t>(o.size_);
        }
        std::memcpy(data(), o.data(), o.size_ * sizeof(T));
        size_ = o.size_;
    }

    void
    grow()
    {
        std::uint32_t new_cap = cap_ * 2;
        T *bigger = new T[new_cap];
        std::memcpy(bigger, data(), size_ * sizeof(T));
        delete[] heap_;
        heap_ = bigger;
        cap_ = new_cap;
    }
    // simlint: cold-end

    T inline_[N];
    T *heap_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
};

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_SMALL_VEC_HH
