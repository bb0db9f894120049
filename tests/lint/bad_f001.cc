// simlint fixture: F001 must fire on every data member that a class
// with a fields() list leaves out. scratchCounter (a statistic),
// ghostTarget_ (controller state) and Entry::orphan (a nested element
// type) are unlisted; listed members, the suppressed identity member,
// the nested type itself and a class without fields() stay silent.
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
