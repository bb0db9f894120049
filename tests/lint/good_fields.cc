// simlint fixture: every data member of each class that defines
// fields() is listed there or carries a reasoned suppression; no F
// rule may fire. Static members, nested types, type aliases and
// member functions are not data members, and a class without fields()
// is not checked.
#include <cstdint>
#include <vector>

class Table
{
  public:
    using Row = std::vector<int>;
    static constexpr int maxRows = 64;

    int rows() const { return static_cast<int>(rows_.size()); }

    template <class V>
    void
    fields(V &v)
    {
        v.expect(rows_.size());
        for (Row &r : rows_)
            v.list(r, maxRows, [&](int &x) { v.i64(x, 0, limit_); });
        v.u64(useClock_);
        hits_.fields(v);
    }

  private:
    struct Counter {
        std::uint64_t value = 0;

        template <class V>
        void
        fields(V &v)
        {
            v.u64(value);
        }
    };

    std::size_t mask_; // simlint-ignore(F001): index mask, from the config
    int limit_ = 3;
    std::vector<Row> rows_;
    std::uint64_t useClock_ = 0;
    Counter hits_;
};

struct Plain {
    int anything = 0;
};
