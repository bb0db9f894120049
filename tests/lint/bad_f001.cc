// simlint fixture: F001 must fire on every data member that a class
// with a fields() list leaves out. scratchCounter (a statistic),
// ghostTarget_ (controller state) and Entry::orphan (a nested element
// type) are unlisted; listed members, the suppressed identity member,
// the nested type itself and a class without fields() stay silent.
// Naming a member is not visiting it: Ring::size_ appears only in
// count_'s bound and Replay::position_ only in a check(), so both
// fire too.
#include <cstdint>
#include <vector>

struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t scratchCounter = 0;

    template <class V>
    void
    fields(V &v)
    {
        v("cycles", cycles);
    }
};

class Probe
{
  public:
    template <class V>
    void
    fields(V &v)
    {
        v.expect(table_.size());
        for (Entry &e : table_)
            e.fields(v);
        v.u64(committed_);
    }

  private:
    struct Entry {
        bool valid = false;
        int orphan = 0;

        template <class V>
        void
        fields(V &v)
        {
            v.boolean(valid);
        }
    };

    // simlint-ignore(F001): constructor identity, rebuilt by the factory
    int params_ = 0;
    std::vector<Entry> table_;
    std::uint64_t committed_ = 0;
    int ghostTarget_ = 16;
};

struct Unlisted {
    int free = 0;  // no fields(): not a checkpointed type
};

class Ring
{
  public:
    template <class V>
    void
    fields(V &v)
    {
        v.expect(ring_.size());
        for (std::uint64_t &pc : ring_)
            v.u64(pc);
        v.u64(head_, ring_.size() - 1);
        v.i64(count_, 0, static_cast<std::int64_t>(size_));
    }

  private:
    std::vector<std::uint64_t> ring_;
    std::uint64_t head_ = 0;
    std::uint64_t size_ = 0;
    int count_ = 0;
};

class Replay
{
  public:
    template <class V>
    void
    fields(V &v)
    {
        v.i64(target_, 1, 16);
        v.check(target_ == targetAt(position_));
    }

  private:
    static int targetAt(std::uint64_t pos) { return pos % 2 ? 1 : 2; }

    std::uint64_t position_ = 0;
    int target_ = 1;
};
