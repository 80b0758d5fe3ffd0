/**
 * @file
 * ARB tests: store-to-load forwarding, version ordering, snoop-driven
 * violations (late stores, value changes, undo), commit, and ordering
 * through the per-PE window-position array — including mid-window
 * insertion (the CGCI case the sequence-number translation exists for).
 *
 * MapArb below is the ARB as it was before its entries became fixed
 * per-(PE, slot) storage: uid-keyed hash maps ordered through a
 * callback. The differential test drives both with the same random
 * operation stream and requires identical load results, violation
 * lists (order included) and occupancy after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>

#include "arb/arb.hh"
#include "common/logging.hh"

namespace tproc
{
namespace
{

/** Reference model: the uid-keyed, callback-ordered ARB. */
class MapArb
{
  public:
    using OrderFn = std::function<int64_t(TraceUid)>;

    explicit MapArb(OrderFn order_fn) : order(std::move(order_fn)) {}

    void
    storePerform(TraceUid uid, int slot, Addr addr, int64_t value)
    {
        SeqTag tag{uid, slot};
        auto idx = storeIndex.find(tag);
        if (idx != storeIndex.end() && idx->second != addr)
            storeUndo(uid, slot);

        auto &vers = stores[addr];
        auto it = std::find_if(vers.begin(), vers.end(), [&](const auto &v) {
            return v.uid == uid && v.slot == slot;
        });
        if (it != vers.end())
            it->value = value;
        else
            vers.push_back({uid, slot, value});
        storeIndex[tag] = addr;

        int64_t store_seq = seqOf(uid, slot);
        auto lit = loads.find(addr);
        if (lit == loads.end())
            return;
        for (const auto &le : lit->second) {
            int64_t load_seq = seqOf(le.uid, le.slot);
            if (load_seq <= store_seq)
                continue;
            if (!le.src.valid()) {
                flagViolation({le.uid, le.slot});
            } else {
                int64_t src_seq = seqOf(le.src.uid, le.src.slot);
                if (src_seq < store_seq)
                    flagViolation({le.uid, le.slot});
                else if (src_seq == store_seq && le.observed != value)
                    flagViolation({le.uid, le.slot});
            }
        }
    }

    void
    storeUndo(TraceUid uid, int slot)
    {
        SeqTag tag{uid, slot};
        auto idx = storeIndex.find(tag);
        if (idx == storeIndex.end())
            return;
        Addr addr = idx->second;
        storeIndex.erase(idx);

        auto &vers = stores[addr];
        vers.erase(std::remove_if(vers.begin(), vers.end(),
                                  [&](const auto &v) {
                                      return v.uid == uid && v.slot == slot;
                                  }),
                   vers.end());
        if (vers.empty())
            stores.erase(addr);

        auto lit = loads.find(addr);
        if (lit == loads.end())
            return;
        for (auto &le : lit->second) {
            if (le.src == tag) {
                flagViolation({le.uid, le.slot});
                le.src = SeqTag{};
            }
        }
    }

    void
    commitStore(TraceUid uid, int slot, SparseMemory &mem)
    {
        SeqTag tag{uid, slot};
        auto idx = storeIndex.find(tag);
        panic_if(idx == storeIndex.end(), "MapArb: store not in ARB");
        Addr addr = idx->second;
        storeIndex.erase(idx);

        auto &vers = stores[addr];
        auto it = std::find_if(vers.begin(), vers.end(), [&](const auto &v) {
            return v.uid == uid && v.slot == slot;
        });
        mem.write(addr, it->value);
        vers.erase(it);
        if (vers.empty())
            stores.erase(addr);

        auto lit = loads.find(addr);
        if (lit != loads.end()) {
            for (auto &le : lit->second) {
                if (le.src == tag)
                    le.src = SeqTag{};
            }
        }
    }

    Arb::LoadResult
    loadAccess(TraceUid uid, int slot, Addr addr, const SparseMemory &mem)
    {
        loadRemove(uid, slot);

        Arb::LoadResult res;
        int64_t load_seq = seqOf(uid, slot);
        auto sit = stores.find(addr);
        if (sit != stores.end()) {
            int64_t best_seq = -1;
            const StoreVersion *best = nullptr;
            for (const auto &v : sit->second) {
                int64_t s = seqOf(v.uid, v.slot);
                if (s < load_seq && s > best_seq) {
                    best_seq = s;
                    best = &v;
                }
            }
            if (best) {
                res.value = best->value;
                res.fromStore = true;
                res.src = {best->uid, best->slot};
            }
        }
        if (!res.fromStore)
            res.value = mem.read(addr);

        loads[addr].push_back({uid, slot, res.src, res.value});
        loadIndex[{uid, slot}] = addr;
        return res;
    }

    void
    loadRemove(TraceUid uid, int slot)
    {
        SeqTag tag{uid, slot};
        auto idx = loadIndex.find(tag);
        if (idx == loadIndex.end())
            return;
        Addr addr = idx->second;
        loadIndex.erase(idx);

        auto &ls = loads[addr];
        ls.erase(std::remove_if(ls.begin(), ls.end(),
                                [&](const auto &le) {
                                    return le.uid == uid && le.slot == slot;
                                }),
                 ls.end());
        if (ls.empty())
            loads.erase(addr);
    }

    std::vector<SeqTag>
    takeViolations()
    {
        return std::exchange(pendingViolations, {});
    }

    size_t storeCount() const { return storeIndex.size(); }
    size_t loadCount() const { return loadIndex.size(); }

  private:
    struct StoreVersion
    {
        TraceUid uid;
        int slot;
        int64_t value;
    };

    struct LoadEntry
    {
        TraceUid uid;
        int slot;
        SeqTag src;
        int64_t observed;
    };

    struct TagHash
    {
        size_t
        operator()(const SeqTag &t) const noexcept
        {
            return std::hash<uint64_t>()(t.uid * 64 +
                                         static_cast<uint64_t>(t.slot + 1));
        }
    };

    int64_t
    seqOf(TraceUid uid, int slot) const
    {
        int64_t pos = order(uid);
        panic_if(pos < 0, "MapArb: ordering queried for unknown trace");
        return pos * 64 + slot;
    }

    void
    flagViolation(const SeqTag &load)
    {
        pendingViolations.push_back(load);
    }

    OrderFn order;
    std::unordered_map<Addr, std::vector<StoreVersion>> stores;
    std::unordered_map<Addr, std::vector<LoadEntry>> loads;
    std::unordered_map<SeqTag, Addr, TagHash> storeIndex;
    std::unordered_map<SeqTag, Addr, TagHash> loadIndex;
    std::vector<SeqTag> pendingViolations;
};

/**
 * Fixture: a window of trace uids in logical order. Each uid gets its
 * own PE on first use; setWindow() publishes the positions and frees
 * every PE not in the window.
 */
class ArbTest : public ::testing::Test
{
  protected:
    static constexpr int numPes = 8;

    ArbTest() : arb(numPes) {}

    int
    pe(TraceUid uid)
    {
        auto it = peOf.find(uid);
        if (it != peOf.end())
            return it->second;
        const int p = static_cast<int>(peOf.size());
        peOf[uid] = p;
        return p;
    }

    void
    setWindow(const std::vector<TraceUid> &uids)
    {
        for (int p = 0; p < numPes; ++p)
            arb.setPosition(p, -1);
        for (size_t i = 0; i < uids.size(); ++i)
            arb.setPosition(pe(uids[i]), static_cast<int64_t>(i));
    }

    void
    store(TraceUid uid, int slot, Addr addr, int64_t value)
    {
        arb.storePerform(pe(uid), uid, slot, addr, value);
    }

    Arb::LoadResult
    load(TraceUid uid, int slot, Addr addr)
    {
        return arb.loadAccess(pe(uid), uid, slot, addr, mem);
    }

    std::vector<SeqTag>
    violations()
    {
        std::vector<SeqTag> v;
        arb.takeViolations(v);
        return v;
    }

    std::map<TraceUid, int> peOf;
    Arb arb;
    SparseMemory mem;
};

} // namespace

TEST_F(ArbTest, ForwardsLatestEarlierVersion)
{
    setWindow({1, 2, 3, 4});
    store(1, 0, 100, 11);
    store(3, 0, 100, 22);

    auto r = load(4, 0, 100);
    EXPECT_TRUE(r.fromStore);
    EXPECT_EQ(r.value, 22);
    EXPECT_EQ(r.src.uid, 3u);

    // A load logically between the stores sees the older version.
    auto r2 = load(2, 5, 100);
    EXPECT_EQ(r2.value, 11);
}

TEST_F(ArbTest, FallsBackToMemory)
{
    setWindow({1});
    mem.write(200, 55);
    auto r = load(1, 0, 200);
    EXPECT_FALSE(r.fromStore);
    EXPECT_EQ(r.value, 55);
}

TEST_F(ArbTest, LateStoreFlagsViolation)
{
    setWindow({1, 2});
    mem.write(100, 5);
    auto r = load(2, 0, 100);       // load first: memory
    EXPECT_EQ(r.value, 5);

    store(1, 0, 100, 42);           // older store arrives late
    auto v = violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].uid, 2u);
    EXPECT_EQ(v[0].slot, 0);
}

TEST_F(ArbTest, YoungerStoreDoesNotFlag)
{
    setWindow({1, 2});
    load(1, 0, 100);
    store(2, 0, 100, 9);            // logically after the load
    EXPECT_TRUE(violations().empty());
}

TEST_F(ArbTest, ValueChangeOnReperformFlags)
{
    setWindow({1, 2});
    store(1, 0, 100, 7);
    load(2, 0, 100);
    // Same store re-performs with the same value: no violation.
    store(1, 0, 100, 7);
    EXPECT_TRUE(violations().empty());
    // Different value: the consumer must reissue.
    store(1, 0, 100, 8);
    EXPECT_EQ(violations().size(), 1u);
}

TEST_F(ArbTest, StoreUndoFlagsConsumers)
{
    setWindow({1, 2});
    store(1, 0, 100, 7);
    load(2, 0, 100);
    arb.storeUndo(pe(1), 0);
    auto v = violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].uid, 2u);
    // The version is gone: re-access falls to memory.
    auto r = load(2, 0, 100);
    EXPECT_FALSE(r.fromStore);
}

TEST_F(ArbTest, AddressChangeUndoesOldAddress)
{
    setWindow({1, 2});
    store(1, 0, 100, 7);
    load(2, 0, 100);
    // The store re-executes to a different address: implicit undo of the
    // old one flags the consumer.
    store(1, 0, 104, 7);
    auto v = violations();
    ASSERT_GE(v.size(), 1u);
    EXPECT_EQ(v[0].uid, 2u);
    EXPECT_EQ(arb.storeCount(), 1u);
}

TEST_F(ArbTest, CommitWritesMemoryAndRepointsLoads)
{
    setWindow({1, 2});
    store(1, 0, 100, 7);
    load(2, 0, 100);
    arb.commitStore(pe(1), 0, mem);
    EXPECT_EQ(mem.read(100), 7);
    EXPECT_EQ(arb.storeCount(), 0u);
    // The load's source is now memory, so a snoop by a fresh store never
    // orders the committed version: trace 1 retires, trace 3 arrives.
    setWindow({2, 3});
    store(3, 0, 100, 9);            // younger than the load: no flag
    EXPECT_TRUE(violations().empty());
}

TEST_F(ArbTest, MidWindowInsertionOrdering)
{
    // Window [1, 5]: a load in 5 consumes memory. Then trace 3 is
    // inserted between them (CGCI) and stores to the same address: the
    // load must be flagged, using the *new* logical order.
    setWindow({1, 5});
    load(5, 0, 300);

    setWindow({1, 3, 5});           // insertion re-numbers
    store(3, 0, 300, 42);
    auto v = violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].uid, 5u);

    auto r = load(5, 0, 300);
    EXPECT_EQ(r.value, 42);
}

TEST_F(ArbTest, IntraTraceSlotOrdering)
{
    setWindow({1});
    store(1, 3, 100, 7);            // store at slot 3
    auto r = load(1, 5, 100);       // later slot: forwarded
    EXPECT_EQ(r.value, 7);
    auto r2 = load(1, 1, 100);      // earlier slot: memory
    EXPECT_FALSE(r2.fromStore);
}

TEST_F(ArbTest, LoadRemoveStopsSnooping)
{
    setWindow({1, 2});
    load(2, 0, 100);
    arb.loadRemove(pe(2), 0);
    store(1, 0, 100, 1);
    EXPECT_TRUE(violations().empty());
    EXPECT_EQ(arb.loadCount(), 0u);
}

TEST_F(ArbTest, ViolationKeepsLoadUidAcrossPeReuse)
{
    setWindow({1, 2});
    load(2, 0, 100);
    store(1, 0, 100, 7);            // flags trace 2's load
    // Trace 2 is squashed before the violations drain, and its PE
    // takes trace 3, which loads from the same slot.
    arb.loadRemove(pe(2), 0);
    peOf[3] = pe(2);
    setWindow({1, 3});
    load(3, 0, 100);
    auto v = violations();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].uid, 2u);        // names no resident trace: dropped
    EXPECT_EQ(v[0].slot, 0);
}

namespace
{

/**
 * One random operation stream applied to the slot-indexed Arb and to
 * MapArb. The window holds up to numPes traces; each trace's slots are
 * loads or stores, fixed at dispatch, as in a real trace.
 */
class ArbDifferential
{
  public:
    static constexpr int numPes = 4;
    static constexpr int numAddrs = 8;

    explicit ArbDifferential(uint64_t seed)
        : rng(seed), arb(numPes), ref([this](TraceUid uid) {
              for (size_t i = 0; i < window.size(); ++i) {
                  if (window[i].uid == uid)
                      return static_cast<int64_t>(i);
              }
              return int64_t{-1};
          })
    {
        for (int pe = numPes - 1; pe >= 0; --pe)
            freePes.push_back(pe);
    }

    /** Drains that returned two or more violations, whose order the
     *  bucket chains decide; loads a store version forwarded to. */
    size_t multiViolationDrains = 0;
    size_t forwardedLoads = 0;

    /** Apply one random operation; false (with a message) on the first
     *  divergence. */
    ::testing::AssertionResult
    step()
    {
        if (window.empty()) {
            dispatch(false);
            return compare("dispatch");
        }
        const int op = pick(100);
        if (op < 25)
            return performStore();
        if (op < 30)
            return undoStore();
        if (op < 32) {
            commitHeadStores();
            return compare("commit");
        }
        if (op < 67)
            return accessLoad();
        if (op < 72) {
            Trace &t = window[pick(window.size())];
            const int slot = pickSlot(t, false);
            ref.loadRemove(t.uid, slot);
            arb.loadRemove(t.pe, slot);
            return compare("loadRemove");
        }
        if (op < 90) {
            if (freePes.empty())
                return compare("noop");
            dispatch(op < 81);
            return compare("dispatch");
        }
        if (op < 95) {
            squashTail();
            return compare("squash");
        }
        retireHead();
        return compare("retire");
    }

  private:
    struct Trace
    {
        TraceUid uid;
        int pe;
        std::array<bool, maxTraceSlots> isStore;
        std::array<bool, maxTraceSlots> performed;
        std::array<Addr, maxTraceSlots> addr;
    };

    int
    pick(size_t n)
    {
        return static_cast<int>(rng() % n);
    }

    /** A random store (or load) slot of t. */
    int
    pickSlot(const Trace &t, bool store)
    {
        int slot;
        do {
            slot = pick(maxTraceSlots);
        } while (t.isStore[slot] != store);
        return slot;
    }

    Addr randomAddr() { return 0x1000 + static_cast<Addr>(pick(numAddrs)); }

    void
    publishPositions()
    {
        for (int pe : freePes)
            arb.setPosition(pe, -1);
        for (size_t i = 0; i < window.size(); ++i)
            arb.setPosition(window[i].pe, static_cast<int64_t>(i));
    }

    /** A new trace on a free PE, at the tail or (mid) inside the
     *  window, as CGCI inserts control dependent traces. */
    void
    dispatch(bool mid)
    {
        Trace t{};
        t.uid = nextUid++;
        t.pe = freePes.back();
        freePes.pop_back();
        // Slots 0 and 1 are a store and a load, the rest random, so
        // every trace has both kinds.
        for (int s = 0; s < maxTraceSlots; ++s)
            t.isStore[s] = s < 2 ? s == 0 : pick(2) == 0;
        const size_t at = mid && window.size() >= 2 ?
            1 + static_cast<size_t>(pick(window.size() - 1)) :
            window.size();
        window.insert(window.begin() + static_cast<ptrdiff_t>(at), t);
        publishPositions();
    }

    ::testing::AssertionResult
    performStore()
    {
        Trace &t = window[pick(window.size())];
        const int slot = pickSlot(t, true);
        // Re-perform at the same address (same or new value) or at a
        // new one; a first perform picks any address.
        Addr addr = t.performed[slot] && pick(2) ? t.addr[slot]
                                                 : randomAddr();
        const int64_t value = pick(4);
        ref.storePerform(t.uid, slot, addr, value);
        arb.storePerform(t.pe, t.uid, slot, addr, value);
        t.performed[slot] = true;
        t.addr[slot] = addr;
        return compare("storePerform");
    }

    ::testing::AssertionResult
    undoStore()
    {
        Trace &t = window[pick(window.size())];
        const int slot = pickSlot(t, true);
        ref.storeUndo(t.uid, slot);
        arb.storeUndo(t.pe, slot);
        t.performed[slot] = false;
        return compare("storeUndo");
    }

    ::testing::AssertionResult
    accessLoad()
    {
        Trace &t = window[pick(window.size())];
        const int slot = pickSlot(t, false);
        const Addr addr = randomAddr();
        const Arb::LoadResult want = ref.loadAccess(t.uid, slot, addr, refMem);
        const Arb::LoadResult got = arb.loadAccess(t.pe, t.uid, slot, addr,
                                                   mem);
        if (got.value != want.value || got.fromStore != want.fromStore ||
            !(got.src == want.src)) {
            return ::testing::AssertionFailure()
                << "loadAccess uid " << t.uid << " slot " << slot
                << ": got (" << got.value << ", " << got.fromStore << ", "
                << got.src.uid << "/" << got.src.slot << ") want ("
                << want.value << ", " << want.fromStore << ", "
                << want.src.uid << "/" << want.src.slot << ")";
        }
        forwardedLoads += got.fromStore;
        return compare("loadAccess");
    }

    void
    commitHeadStores()
    {
        Trace &h = window.front();
        for (int s = 0; s < maxTraceSlots; ++s) {
            if (h.isStore[s] && h.performed[s]) {
                ref.commitStore(h.uid, s, refMem);
                arb.commitStore(h.pe, s, mem);
                h.performed[s] = false;
            }
        }
    }

    /** Release a trace's entries the way squash and retire do. */
    void
    release(const Trace &t)
    {
        for (int s = 0; s < maxTraceSlots; ++s) {
            if (!t.isStore[s]) {
                ref.loadRemove(t.uid, s);
                arb.loadRemove(t.pe, s);
            } else if (t.performed[s]) {
                ref.storeUndo(t.uid, s);
                arb.storeUndo(t.pe, s);
            }
        }
    }

    void
    squashTail()
    {
        const Trace t = window.back();
        release(t);
        window.pop_back();
        freePes.push_back(t.pe);
        publishPositions();
    }

    /** The head commits and leaves; its PE takes a new trace at once. */
    void
    retireHead()
    {
        commitHeadStores();
        const Trace t = window.front();
        release(t);
        window.erase(window.begin());
        freePes.push_back(t.pe);
        publishPositions();
        dispatch(false);
    }

    ::testing::AssertionResult
    compare(const char *what)
    {
        std::vector<SeqTag> want = ref.takeViolations();
        arb.takeViolations(drained);
        if (drained.size() != want.size()) {
            return ::testing::AssertionFailure()
                << what << ": " << drained.size() << " violations, want "
                << want.size();
        }
        multiViolationDrains += drained.size() >= 2;
        for (size_t i = 0; i < drained.size(); ++i) {
            if (!(drained[i] == want[i])) {
                return ::testing::AssertionFailure()
                    << what << ": violation " << i << " is "
                    << drained[i].uid << "/" << drained[i].slot << ", want "
                    << want[i].uid << "/" << want[i].slot;
            }
        }
        if (arb.storeCount() != ref.storeCount() ||
            arb.loadCount() != ref.loadCount()) {
            return ::testing::AssertionFailure()
                << what << ": counts " << arb.storeCount() << "/"
                << arb.loadCount() << ", want " << ref.storeCount() << "/"
                << ref.loadCount();
        }
        for (int a = 0; a < numAddrs; ++a) {
            if (mem.read(0x1000 + a) != refMem.read(0x1000 + a))
                return ::testing::AssertionFailure()
                    << what << ": memory differs at word " << a;
        }
        return ::testing::AssertionSuccess();
    }

    std::mt19937_64 rng;
    Arb arb;
    MapArb ref;
    SparseMemory mem, refMem;
    std::vector<Trace> window;      //!< logical order
    std::vector<int> freePes;
    std::vector<SeqTag> drained;
    TraceUid nextUid = 1;
};

} // namespace

TEST(ArbDifferentialTest, MatchesMapBasedArb)
{
    size_t multi = 0, forwarded = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        ArbDifferential d(seed);
        for (int op = 0; op < 5000; ++op)
            ASSERT_TRUE(d.step()) << "seed " << seed << " op " << op;
        multi += d.multiViolationDrains;
        forwarded += d.forwardedLoads;
    }
    // The stream must exercise what it compares: violation lists long
    // enough for their order to matter, and store-to-load forwarding.
    EXPECT_GT(multi, 1000u);
    EXPECT_GT(forwarded, 1000u);
}

} // namespace tproc
