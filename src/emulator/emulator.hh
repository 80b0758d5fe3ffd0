/**
 * @file
 * The architectural (golden-model) emulator. Executes a Program one
 * instruction at a time and reports everything a timing simulator needs
 * to verify retirement: next pc, branch outcome, destination value, and
 * memory effects.
 */

#ifndef TPROC_EMULATOR_EMULATOR_HH
#define TPROC_EMULATOR_EMULATOR_HH

#include <array>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "emulator/arch_source.hh"
#include "program/program.hh"

namespace tproc
{

/** What SparseMemory throws when a program touches more than
 *  SparseMemory::maxPages pages. */
struct MemoryBudgetError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Sparse word-addressed data memory. Unwritten words read as zero.
 *
 * Words live in fixed-size, zero-filled pages behind a page-keyed
 * directory, so loading a program's data image fills a few dozen pages
 * rather than allocating a node per word. The image is sorted by
 * address, so load() looks each page up once and fills its words from
 * one contiguous run of the image. Only write() and load() create
 * pages: read() changes no state and returns 0 for any unwritten word,
 * including the garbage addresses wrong-path loads compute.
 *
 * A memory holds at most maxPages pages (16 MiB). Every workload in
 * the repo touches at most 110, but a program from a trace file can
 * scatter a few bytes of image or a short store loop over millions of
 * pages; creating a page beyond the budget throws MemoryBudgetError.
 */
class SparseMemory
{
  public:
    static constexpr int pageBits = 9;
    static constexpr Addr pageWords = Addr{1} << pageBits;
    static constexpr size_t maxPages = 4096;

    int64_t
    read(Addr addr) const
    {
        auto it = pages.find(addr >> pageBits);
        return it == pages.end() ? 0 : (*it->second)[addr & (pageWords - 1)];
    }

    void
    write(Addr addr, int64_t value)
    {
        pageOf(addr)[addr & (pageWords - 1)] = value;
    }

    void
    load(const DataImage &image)
    {
        Page *page = nullptr;
        Addr page_no = 0;
        for (const auto &[a, v] : image) {
            if (!page || (a >> pageBits) != page_no) {
                page_no = a >> pageBits;
                page = &pageOf(a);
            }
            (*page)[a & (pageWords - 1)] = v;
        }
    }

    /** Pages allocated so far (tests). */
    size_t pageCount() const { return pages.size(); }

  private:
    using Page = std::array<int64_t, pageWords>;

    /** The page holding addr, created zero-filled if absent. */
    Page &
    pageOf(Addr addr)
    {
        auto &page = pages[addr >> pageBits];
        if (!page)
            page = newPage(addr);
        return *page;
    }

    /** A fresh page for addr, whose (still empty) slot the directory
     *  already holds; throws MemoryBudgetError beyond maxPages. */
    std::unique_ptr<Page> newPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;
};

/** Pure ALU evaluation shared between the emulator and the timing
 *  simulator's execution units. Arithmetic wraps modulo 2^64 (a
 *  program, which may come from a trace file, can overflow anything);
 *  division by zero yields zero and INT64_MIN / -1 yields INT64_MIN. */
int64_t evalAlu(Opcode op, int64_t a, int64_t b, int64_t imm);

/** A load's or store's address: base register plus immediate,
 *  wrapping modulo 2^64. */
inline Addr
effectiveAddr(int64_t base, int64_t imm)
{
    return static_cast<Addr>(base) + static_cast<Addr>(imm);
}

/** Conditional branch outcome. */
bool evalBranch(Opcode op, int64_t a, int64_t b);

/**
 * Architectural state + single-step execution.
 */
class Emulator : public ArchSource
{
  public:
    explicit Emulator(const Program &prog_);

    /** Execute the instruction at the current pc. */
    StepResult step() override;

    bool halted() const override { return isHalted; }
    uint64_t instCount() const override { return icount; }

    Addr pc() const { return curPc; }

    int64_t readReg(ArchReg r) const { return regs[r]; }
    const SparseMemory &memory() const { return mem; }
    SparseMemory &memory() { return mem; }

    /** Run until HALT or max_insts, returning instructions executed. */
    uint64_t run(uint64_t max_insts);

  private:
    const Program &prog;
    std::array<int64_t, numArchRegs> regs{};
    SparseMemory mem;
    Addr curPc;
    bool isHalted = false;
    uint64_t icount = 0;
};

} // namespace tproc

#endif // TPROC_EMULATOR_EMULATOR_HH
