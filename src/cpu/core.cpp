#include "core.h"

#include <sys/mman.h>

#include <algorithm>
#include <limits>
#include <new>
#include <stdexcept>

#include "power/power_trace.h"
#include "rng.h"

namespace eddie::cpu
{

namespace
{

using power::Event;
using prog::Instr;
using prog::kBoundary;
using prog::kNoRegion;
using prog::Opcode;

/**
 * Tracks per-cycle issue-slot occupancy in a sliding window so the
 * out-of-order model can place instructions in already-partially-used
 * cycles without unbounded memory.
 */
class SlotTracker
{
  public:
    explicit SlotTracker(std::size_t width) : width_(width), cnt_(kSpan, 0)
    {
    }

    /** Earliest cycle >= min_cycle with a free slot; claims it. */
    std::uint64_t
    alloc(std::uint64_t min_cycle)
    {
        std::uint64_t c = std::max(min_cycle, base_);
        if (c - base_ >= kSpan)
            advance(c - kSpan + 1);
        while (cnt_[c & kMask] >= width_) {
            ++c;
            if (c - base_ >= kSpan)
                advance(c - kSpan + 1);
        }
        ++cnt_[c & kMask];
        return c;
    }

  private:
    static constexpr std::uint64_t kSpan = 8192;
    static constexpr std::uint64_t kMask = kSpan - 1;

    void
    advance(std::uint64_t new_base)
    {
        // Clear slots that fall out of the window.
        const std::uint64_t steps = std::min(new_base - base_, kSpan);
        for (std::uint64_t i = 0; i < steps; ++i)
            cnt_[(base_ + i) & kMask] = 0;
        base_ = new_base;
    }

    std::size_t width_;
    std::uint64_t base_ = 0;
    std::vector<std::uint16_t> cnt_;
};

/**
 * Word-addressed data memory. The pages come straight from an
 * anonymous mapping, which the kernel zeroes on first touch, so a
 * run pays only for the pages its program and image use.
 */
class WordMemory
{
  public:
    explicit WordMemory(std::size_t words)
        : bytes_(words * sizeof(std::int64_t))
    {
        if (bytes_ == 0)
            return;
        void *p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        words_ = static_cast<std::int64_t *>(p);
    }
    ~WordMemory()
    {
        if (words_ != nullptr)
            munmap(words_, bytes_);
    }
    WordMemory(const WordMemory &) = delete;
    WordMemory &operator=(const WordMemory &) = delete;

    std::int64_t &operator[](std::uint64_t i) { return words_[i]; }
    std::int64_t *data() { return words_; }

  private:
    std::size_t bytes_;
    std::int64_t *words_ = nullptr;
};

/** Sentinel for "no instruction issued in this sample bucket yet". */
constexpr std::int32_t kUnmarked = -2;
/** Sentinel for "instruction outside any loop region". */
constexpr std::int32_t kNonLoop = -1;

// The simulated ISA wraps on overflow (two's complement); host
// signed overflow is undefined, so the arithmetic runs unsigned.
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) + std::uint64_t(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) - std::uint64_t(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) * std::uint64_t(b));
}

/** Quotient truncated toward zero; 0 for a zero divisor, and the
 *  wrapped negation for -1 (INT64_MIN / -1 overflows). */
std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    return b == -1 ? wrapSub(0, a) : a / b;
}

/** A loop-body injection with its contamination coin. */
struct LoopHook
{
    const std::vector<InjectedOp> *ops;
    CoinThreshold coin;
};

/** One instruction with everything the hot loop looks up per pc. */
struct Decoded
{
    Opcode op;
    std::uint8_t rd;
    std::uint8_t rs1;
    std::uint8_t rs2;
    /** Loop region id of the instruction, or kNonLoop. */
    std::int32_t mark;
    std::int64_t imm;
    /** Injection fired when a control transfer lands here. */
    const LoopHook *hook;
};

/**
 * Per-run execution engine; all mutable state lives here.
 * @tparam kOoo out-of-order timing model (else in-order)
 */
template <bool kOoo>
class Runner
{
  public:
    Runner(const CoreConfig &cfg, const power::EnergyParams &eparams,
           const prog::Program &program, const prog::RegionGraph &regions,
           const MemoryImage &image, const InjectionPlan &plan,
           std::uint64_t seed)
        : cfg_(cfg),
          program_(program),
          regions_(regions),
          plan_(plan),
          energy_(eparams, cfg.l1.size_bytes, cfg.l2.size_bytes,
                  cfg.pipeline_depth),
          caches_(cfg.l1, cfg.l2),
          pred_(12),
          slots_(cfg.issue_width),
          trace_(cfg.cycles_per_sample, cfg.clock_hz),
          rng_(seed),
          mem_(cfg.memory_words)
    {
        for (const auto &[addr, words] : image) {
            if (addr + words.size() > cfg_.memory_words)
                throw std::out_of_range("Core: memory image too large");
            std::copy(words.begin(), words.end(), mem_.data() + addr);
        }
        commit_ring_.assign(std::max<std::size_t>(cfg.rob_size, 1), 0);

        // Effective structural-hazard jitter (see CoreConfig).
        // Dynamically scheduled cores have more un-modeled schedule
        // nondeterminism than in-order pipelines; the *per-parameter*
        // effects (e.g. deeper pipelines -> more misprediction
        // variance) arise naturally from the timing model itself, so
        // the synthetic part is a flat style-dependent factor.
        const double scale = kOoo ? 1.5 : 0.25;
        jitter_prob_ = std::min(cfg_.schedule_jitter * scale, 0.9);

        decode();
        burst_fired_.assign(plan_.bursts.size(), false);
        burst_count_.assign(plan_.bursts.size(), 0);

        // Injected off-chip accesses stride a large region placed in
        // the top half of memory.
        inj_miss_base_ = cfg_.memory_words / 2;
        inj_miss_span_ = std::min<std::uint64_t>(cfg_.memory_words / 4,
                                                 std::uint64_t(1) << 19);
        inj_hit_addr_ = cfg_.memory_words / 2 - 64;

        // OS interrupt model.
        kernel_base_ = cfg_.memory_words * 3 / 4;
        if (cfg_.os_irq_rate_hz > 0.0) {
            irq_interval_ = std::uint64_t(cfg_.clock_hz /
                                          cfg_.os_irq_rate_hz);
            scheduleNextIrq(0);
        }
    }

    RunResult run();

  private:
    /** Builds the per-pc table: operands, loop region, and the
     *  loop-body injection whose hot header each pc is. */
    void
    decode()
    {
        const auto &code = program_.code;
        decoded_.resize(code.size());
        for (std::size_t pc = 0; pc < code.size(); ++pc) {
            const Instr &in = code[pc];
            const std::size_t loop = regions_.loopRegionOf(pc);
            if (loop != kNoRegion &&
                loop >= std::size_t(std::numeric_limits<std::int32_t>::max()))
                throw std::out_of_range("Core: bad loop region id");
            decoded_[pc] = {in.op, in.rd, in.rs1, in.rs2,
                            loop == kNoRegion ? kNonLoop :
                                                std::int32_t(loop),
                            in.imm, nullptr};
        }
        // A later injection of the same loop replaces an earlier one.
        hooks_.reserve(plan_.loops.size());
        for (const auto &li : plan_.loops) {
            if (li.loop_region >= regions_.num_loops)
                throw std::out_of_range("Core: bad injected loop region");
            const auto hot =
                regions_.regions[li.loop_region].hot_header_instr;
            if (hot >= code.size())
                throw std::out_of_range("Core: injected loop header "
                                        "outside the program");
            hooks_.push_back({&li.ops, CoinThreshold(li.contamination)});
            decoded_[hot].hook = &hooks_.back();
        }
    }

    // --- timing ----------------------------------------------------
    std::uint64_t
    jitter()
    {
        // Epoch-correlated: redraw the instantaneous delay
        // probability in [0, 2 * mean] every epoch so timing wanders
        // slowly (DVFS/thermal/contention), not just white noise.
        if (jitter_countdown_ == 0) {
            jitter_countdown_ = cfg_.jitter_epoch_instrs;
            jitter_coin_ = CoinThreshold(jitter_prob_ * 2.0 * coin_(rng_));
        }
        --jitter_countdown_;
        return jitter_coin_(rng_()) ? 1 : 0;
    }

    struct Issue
    {
        std::uint64_t issue = 0;
        std::uint64_t complete = 0;
    };

    /** Places one instruction in the schedule. */
    Issue
    issueOp(std::uint64_t ready, std::size_t latency)
    {
        Issue r;
        std::uint64_t min_cycle;
        if constexpr (kOoo)
            min_cycle = std::max({fetch_ready_, ready,
                                  commit_ring_[ring_pos_]});
        else
            min_cycle = std::max({fetch_ready_, ready, prev_issue_});
        r.issue = slots_.alloc(min_cycle + jitter());
        r.complete = r.issue + latency;
        if constexpr (kOoo) {
            // In-order commit with issue-width commit bandwidth.
            std::uint64_t commit = std::max(r.complete + 1,
                                            last_commit_);
            if (commit == last_commit_) {
                if (++commits_in_cycle_ > cfg_.issue_width) {
                    ++commit;
                    commits_in_cycle_ = 1;
                }
            } else {
                commits_in_cycle_ = 1;
            }
            last_commit_ = commit;
            commit_ring_[ring_pos_] = commit;
            if (++ring_pos_ == commit_ring_.size())
                ring_pos_ = 0;
        } else {
            prev_issue_ = r.issue;
        }
        end_cycle_ = std::max(end_cycle_, r.complete);
        return r;
    }

    /** Load-to-use latency of an access serviced at @p lvl. */
    std::size_t
    levelLatency(MemLevel lvl) const
    {
        switch (lvl) {
          case MemLevel::L1: return cfg_.l1_latency;
          case MemLevel::L2: return cfg_.l2_latency;
          case MemLevel::Dram: return cfg_.dram_latency;
        }
        return cfg_.l1_latency;
    }

    /** Deposits the energy of an access serviced at @p lvl. */
    void
    depositMem(MemLevel lvl, std::uint64_t at_cycle)
    {
        deposit(at_cycle, Event::L1Access);
        if (lvl == MemLevel::L2 || lvl == MemLevel::Dram)
            deposit(at_cycle + cfg_.l1_latency, Event::L2Access);
        if (lvl == MemLevel::Dram)
            deposit(at_cycle + cfg_.l2_latency, Event::DramAccess);
    }

    /** Memory access: cache lookup + energy; returns load latency. */
    std::size_t
    memAccess(std::uint64_t word_addr, std::uint64_t at_cycle)
    {
        const std::uint64_t byte_addr = word_addr << 3;
        const MemLevel lvl = caches_.access(byte_addr);
        depositMem(lvl, at_cycle);
        return levelLatency(lvl);
    }

    /** Partial in-order stall when a store misses: the store buffer
     *  absorbs some, but sustained misses back-pressure the pipe. */
    void
    storeMissStall(std::size_t lat, std::uint64_t issue)
    {
        if (!kOoo && lat > cfg_.l1_latency)
            fetch_ready_ = std::max(fetch_ready_, issue + lat / 2);
    }

    void
    deposit(std::uint64_t cycle, Event e)
    {
        trace_.deposit(cycle, energy_.eventEnergy(e));
    }

    /** Two events in one cycle, added to the bucket in order. */
    void
    deposit(std::uint64_t cycle, Event first, Event second)
    {
        double &s = trace_.bucket(trace_.sampleOf(cycle));
        s += energy_.eventEnergy(first);
        s += energy_.eventEnergy(second);
    }

    // --- annotations ------------------------------------------------
    void
    ensureAnnot(std::uint64_t bucket)
    {
        if (bucket >= loop_mark_.size()) {
            loop_mark_.resize(bucket + 1, kUnmarked);
            injected_.resize(bucket + 1, 0);
        }
    }

    void
    markRegion(std::uint64_t cycle, std::int32_t mark)
    {
        const std::uint64_t b = trace_.sampleOf(cycle);
        ensureAnnot(b);
        loop_mark_[b] = mark;
    }

    /** Marks every sample bucket an injected op occupies, including
     *  the cycles it stalls the pipeline. */
    void
    markInjectedRange(std::uint64_t from_cycle, std::uint64_t to_cycle)
    {
        const std::uint64_t b0 = trace_.sampleOf(from_cycle);
        const std::uint64_t b1 = trace_.sampleOf(to_cycle);
        ensureAnnot(b1);
        for (std::uint64_t b = b0; b <= b1; ++b)
            injected_[b] = 1;
    }

    // --- injection ---------------------------------------------------
    void
    injectOps(const InjectedOp *ops, std::size_t n)
    {
        for (std::size_t k = 0; k < n; ++k) {
            const InjectedOp op = ops[k];
            Issue is;
            switch (op) {
              case InjectedOp::Add:
                is = issueOp(0, 1);
                deposit(is.issue, Event::IssueBase, Event::AluOp);
                break;
              case InjectedOp::Mul:
                is = issueOp(0, cfg_.mul_latency);
                deposit(is.issue, Event::IssueBase, Event::MulOp);
                break;
              case InjectedOp::StoreHit:
                is = issueOp(0, 1);
                deposit(is.issue, Event::IssueBase);
                memAccess(inj_hit_addr_, is.issue);
                break;
              case InjectedOp::StoreMiss:
              case InjectedOp::Load: {
                const std::uint64_t addr = inj_miss_base_ +
                    (inj_miss_cursor_ % inj_miss_span_);
                inj_miss_cursor_ += 8; // one cache line per access
                // Look up first (outcome is time-independent) so the
                // issue can carry the right latency.
                const MemLevel lvl = caches_.access(addr << 3);
                const std::size_t lat = levelLatency(lvl);
                is = issueOp(0, op == InjectedOp::Load ? lat : 1);
                deposit(is.issue, Event::IssueBase);
                depositMem(lvl, is.issue);
                if (op == InjectedOp::Load && !kOoo &&
                    lat > cfg_.l1_latency) {
                    fetch_ready_ = std::max(fetch_ready_, is.complete);
                }
                if (op == InjectedOp::StoreMiss)
                    storeMissStall(lat, is.issue);
                break;
              }
            }
            markInjectedRange(is.issue, is.complete);
        }
        injected_ops_ += n;
    }

    // --- OS interrupts ------------------------------------------------
    void
    scheduleNextIrq(std::uint64_t from_cycle)
    {
        // +-50 % interval jitter, like a busy little OS.
        std::uniform_real_distribution<double> jitter_dist(0.5, 1.5);
        next_irq_cycle_ = from_cycle +
            std::uint64_t(double(irq_interval_) * jitter_dist(rng_));
    }

    /** Runs a kernel-ish burst of work: ALU ops plus strided kernel
     *  memory traffic that pollutes the caches. */
    void
    fireInterrupt()
    {
        std::uniform_real_distribution<double> len_dist(0.5, 1.5);
        const auto ops =
            std::size_t(double(cfg_.os_irq_ops) * len_dist(rng_));
        std::uint64_t last = 0;
        for (std::size_t k = 0; k < ops; ++k) {
            Issue is;
            if (k % 3 == 2) {
                const std::uint64_t addr = kernel_base_ +
                    (kernel_cursor_ % (std::uint64_t(1) << 15));
                kernel_cursor_ += 8;
                const MemLevel lvl = caches_.access(addr << 3);
                is = issueOp(0, levelLatency(lvl));
                deposit(is.issue, Event::IssueBase);
                depositMem(lvl, is.issue);
            } else {
                is = issueOp(0, 1);
                deposit(is.issue, Event::IssueBase, Event::AluOp);
            }
            last = is.complete;
        }
        // Context-switch overhead.
        deposit(last, Event::PipelineFlush);
        fetch_ready_ = std::max(fetch_ready_, last);
        scheduleNextIrq(last);
    }

    void
    maybeFireBursts(bool entering_loop, std::size_t loop)
    {
        for (std::size_t i = 0; i < plan_.bursts.size(); ++i) {
            if (burst_fired_[i])
                continue;
            const BurstInjection &b = plan_.bursts[i];
            if (b.trigger_region >= regions_.regions.size())
                continue;
            const prog::Region &r = regions_.regions[b.trigger_region];
            bool triggers = false;
            if (r.kind == prog::Region::Kind::Loop) {
                triggers = entering_loop && r.loop == loop;
            } else {
                // Transition region: fire when its source loop exits.
                triggers = !entering_loop && r.from_loop == loop;
            }
            if (!triggers)
                continue;
            if (++burst_count_[i] < b.occurrence)
                continue;
            burst_fired_[i] = true;
            fireBurst(b);
        }
    }

    void
    fireBurst(const BurstInjection &b)
    {
        if (b.body.empty())
            return;
        std::uint64_t done = 0;
        while (done < b.total_ops) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(b.body.size(),
                                        b.total_ops - done);
            injectOps(b.body.data(), std::size_t(chunk));
            done += chunk;
        }
    }

    // --- region resolution -------------------------------------------
    void resolveRegions(RunResult &out);

    // --- members -----------------------------------------------------
    const CoreConfig &cfg_;
    const prog::Program &program_;
    const prog::RegionGraph &regions_;
    const InjectionPlan &plan_;
    power::EnergyModel energy_;
    CacheHierarchy caches_;
    BranchPredictor pred_;
    SlotTracker slots_;
    power::PowerTrace trace_;
    Mt19937x64 rng_;
    std::uniform_real_distribution<double> coin_{0.0, 1.0};

    std::vector<Decoded> decoded_;
    std::vector<LoopHook> hooks_;

    WordMemory mem_;
    std::int64_t regs_[prog::kNumRegs] = {};
    std::uint64_t reg_ready_[prog::kNumRegs] = {};

    std::uint64_t fetch_ready_ = 0;
    std::uint64_t prev_issue_ = 0;
    std::uint64_t last_commit_ = 0;
    std::size_t commits_in_cycle_ = 0;
    std::vector<std::uint64_t> commit_ring_;
    /** Ring slot of the next instruction (instruction index modulo
     *  the ring size). */
    std::size_t ring_pos_ = 0;
    std::uint64_t end_cycle_ = 0;
    double jitter_prob_ = 0.0;
    CoinThreshold jitter_coin_;
    std::size_t jitter_countdown_ = 0;

    std::vector<std::int32_t> loop_mark_;
    std::vector<std::uint8_t> injected_;
    std::uint64_t injected_ops_ = 0;

    std::vector<std::uint8_t> burst_fired_;
    std::vector<std::size_t> burst_count_;
    std::uint64_t inj_miss_base_ = 0;
    std::uint64_t inj_miss_span_ = 1;
    std::uint64_t inj_miss_cursor_ = 0;
    std::uint64_t inj_hit_addr_ = 0;

    std::uint64_t irq_interval_ = 0;
    std::uint64_t next_irq_cycle_ = std::uint64_t(-1);
    std::uint64_t kernel_base_ = 0;
    std::uint64_t kernel_cursor_ = 0;
};

template <bool kOoo>
RunResult
Runner<kOoo>::run()
{
    const std::size_t code_size = decoded_.size();
    if (code_size == 0)
        throw std::invalid_argument("Core: empty program");

    std::size_t pc = 0;
    std::int32_t cur_mark = kNonLoop;
    std::uint64_t retired = 0;
    bool halted = false;

    const std::uint64_t addr_mask = cfg_.memory_words - 1;

    while (!halted && retired < cfg_.max_instructions) {
        const Decoded &in = decoded_[pc];

        // Coarse region tracking for burst triggers.
        if (in.mark != cur_mark) {
            if (cur_mark != kNonLoop)
                maybeFireBursts(false, std::size_t(cur_mark));
            if (in.mark != kNonLoop)
                maybeFireBursts(true, std::size_t(in.mark));
            cur_mark = in.mark;
        }

        std::size_t next_pc = pc + 1;
        Issue is;

        // Register-register ALU op producing @p v.
        const auto alu = [&](std::int64_t v) {
            is = issueOp(std::max(reg_ready_[in.rs1], reg_ready_[in.rs2]),
                         1);
            deposit(is.issue, Event::IssueBase, Event::AluOp);
            regs_[in.rd] = v;
            reg_ready_[in.rd] = is.complete;
        };
        // Conditional branch resolving to @p taken.
        const auto branch = [&](bool taken) {
            is = issueOp(std::max(reg_ready_[in.rs1], reg_ready_[in.rs2]),
                         1);
            deposit(is.issue, Event::IssueBase, Event::BranchOp);
            if (!pred_.update(pc, taken)) {
                fetch_ready_ = std::max(fetch_ready_,
                                        is.complete +
                                            cfg_.pipeline_depth);
                deposit(is.complete, Event::PipelineFlush);
            }
            if (taken)
                next_pc = std::size_t(in.imm);
        };
        const std::int64_t a = regs_[in.rs1];
        const std::int64_t b = regs_[in.rs2];

        switch (in.op) {
          case Opcode::Nop:
            is = issueOp(0, 1);
            deposit(is.issue, Event::IssueBase);
            break;
          case Opcode::Add: alu(wrapAdd(a, b)); break;
          case Opcode::Sub: alu(wrapSub(a, b)); break;
          case Opcode::And: alu(a & b); break;
          case Opcode::Or: alu(a | b); break;
          case Opcode::Xor: alu(a ^ b); break;
          case Opcode::Shl:
            alu(std::int64_t(std::uint64_t(a) << (b & 63)));
            break;
          case Opcode::Shr:
            alu(std::int64_t(std::uint64_t(a) >> (b & 63)));
            break;
          case Opcode::Mul:
          case Opcode::Div: {
            const bool mul = in.op == Opcode::Mul;
            is = issueOp(std::max(reg_ready_[in.rs1], reg_ready_[in.rs2]),
                         mul ? cfg_.mul_latency : cfg_.div_latency);
            deposit(is.issue, Event::IssueBase,
                    mul ? Event::MulOp : Event::DivOp);
            regs_[in.rd] = mul ? wrapMul(a, b) : wrapDiv(a, b);
            reg_ready_[in.rd] = is.complete;
            break;
          }
          case Opcode::Addi:
            is = issueOp(reg_ready_[in.rs1], 1);
            deposit(is.issue, Event::IssueBase, Event::AluOp);
            regs_[in.rd] = wrapAdd(a, in.imm);
            reg_ready_[in.rd] = is.complete;
            break;
          case Opcode::Li:
            is = issueOp(0, 1);
            deposit(is.issue, Event::IssueBase, Event::AluOp);
            regs_[in.rd] = in.imm;
            reg_ready_[in.rd] = is.complete;
            break;
          case Opcode::Ld: {
            const std::uint64_t addr =
                std::uint64_t(wrapAdd(a, in.imm)) & addr_mask;
            is = issueOp(reg_ready_[in.rs1], 1);
            const std::size_t lat = memAccess(addr, is.issue);
            is.complete = is.issue + lat;
            end_cycle_ = std::max(end_cycle_, is.complete);
            deposit(is.issue, Event::IssueBase);
            regs_[in.rd] = mem_[addr];
            reg_ready_[in.rd] = is.complete;
            // Blocking cache on in-order cores.
            if (!kOoo && lat > cfg_.l1_latency)
                fetch_ready_ = std::max(fetch_ready_, is.complete);
            break;
          }
          case Opcode::St: {
            const std::uint64_t addr =
                std::uint64_t(wrapAdd(a, in.imm)) & addr_mask;
            is = issueOp(std::max(reg_ready_[in.rs1], reg_ready_[in.rs2]),
                         1);
            deposit(is.issue, Event::IssueBase);
            const std::size_t lat = memAccess(addr, is.issue);
            storeMissStall(lat, is.issue);
            mem_[addr] = b;
            break;
          }
          case Opcode::Jmp:
            is = issueOp(0, 1);
            deposit(is.issue, Event::IssueBase, Event::BranchOp);
            next_pc = std::size_t(in.imm);
            break;
          case Opcode::Beq: branch(a == b); break;
          case Opcode::Bne: branch(a != b); break;
          case Opcode::Blt: branch(a < b); break;
          case Opcode::Bge: branch(a >= b); break;
          case Opcode::Halt:
            is = issueOp(0, 1);
            deposit(is.issue, Event::IssueBase);
            halted = true;
            break;
        }

        markRegion(is.issue, in.mark);
        ++retired;

        if (is.issue >= next_irq_cycle_)
            fireInterrupt();

        // Loop-body injection at iteration boundaries: a control
        // transfer landing on the nest's hot header.
        if (!halted && next_pc != pc + 1 && next_pc < code_size) {
            const LoopHook *hook = decoded_[next_pc].hook;
            if (hook != nullptr && hook->coin(rng_()))
                injectOps(hook->ops->data(), hook->ops->size());
        }

        pc = next_pc;
        if (pc >= code_size)
            halted = true;
    }

    trace_.finalize(end_cycle_, energy_.baselinePerCycle());

    RunResult out;
    out.sample_rate = trace_.sampleRate();
    out.power = trace_.takeSamples();
    resolveRegions(out);
    out.injected = std::move(injected_);
    out.injected.resize(out.power.size(), 0);

    out.final_regs.assign(regs_, regs_ + prog::kNumRegs);
    if (cfg_.snapshot_words > 0) {
        const std::size_t n_snap = std::min<std::size_t>(
            cfg_.snapshot_words, cfg_.memory_words);
        out.memory.assign(mem_.data(), mem_.data() + n_snap);
    }

    out.stats.instructions = retired;
    out.stats.injected_ops = injected_ops_;
    out.stats.cycles = end_cycle_;
    out.stats.l1_hits = caches_.l1().hits();
    out.stats.l1_misses = caches_.l1().misses();
    out.stats.l2_hits = caches_.l2().hits();
    out.stats.l2_misses = caches_.l2().misses();
    out.stats.branches = pred_.lookups();
    out.stats.mispredicts = pred_.mispredicts();
    return out;
}

template <bool kOoo>
void
Runner<kOoo>::resolveRegions(RunResult &out)
{
    const std::size_t n = out.power.size();
    std::vector<std::int32_t> &marks = loop_mark_;
    marks.resize(n, kUnmarked);

    // Fill sample gaps with the preceding mark.
    std::int32_t prev = kNonLoop;
    for (auto &m : marks) {
        if (m == kUnmarked)
            m = prev;
        else
            prev = m;
    }

    // Turn non-loop runs into transition regions.
    out.region.assign(n, kNoRegion);
    std::size_t i = 0;
    std::size_t prev_loop = kBoundary;
    while (i < n) {
        if (marks[i] >= 0) {
            const auto loop = std::size_t(marks[i]);
            out.region[i] = loop; // loop region ids equal loop index
            prev_loop = loop;
            ++i;
            continue;
        }
        // Non-loop run [i, j).
        std::size_t j = i;
        while (j < n && marks[j] < 0)
            ++j;
        const std::size_t next_loop =
            j < n ? std::size_t(marks[j]) : kBoundary;
        const std::size_t trans = regions_.transitionId(prev_loop,
                                                        next_loop);
        for (std::size_t k = i; k < j; ++k)
            out.region[k] = trans;
        i = j;
    }
}

} // namespace

Core::Core(const CoreConfig &config, const power::EnergyParams &energy)
    : config_(config), energy_params_(energy)
{
    if (config_.issue_width == 0)
        throw std::invalid_argument("Core: issue width must be > 0");
    if ((config_.memory_words & (config_.memory_words - 1)) != 0)
        throw std::invalid_argument("Core: memory_words must be pow2");
}

RunResult
Core::run(const prog::Program &program, const prog::RegionGraph &regions,
          const MemoryImage &image, const InjectionPlan &plan,
          std::uint64_t seed)
{
    if (config_.out_of_order)
        return Runner<true>(config_, energy_params_, program, regions,
                            image, plan, seed)
            .run();
    return Runner<false>(config_, energy_params_, program, regions, image,
                         plan, seed)
        .run();
}

} // namespace eddie::cpu
