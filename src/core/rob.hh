/**
 * @file
 * Reorder buffer: age-ordered window of in-flight instructions. Owns
 * the DynInst objects for the whole pipeline — entries come from the
 * pipeline's DynInstPool and are recycled to it on retire/squash.
 */

#ifndef DMDC_CORE_ROB_HH
#define DMDC_CORE_ROB_HH

#include "common/object_pool.hh"
#include "core/inst.hh"

namespace dmdc
{

/** Pool all in-flight DynInsts are drawn from. */
using DynInstPool = ObjectPool<DynInst>;

/**
 * Commit-order hook: notified for every retiring instruction, just
 * before its entry is recycled to the pool. Null on normal runs
 * (--check=off); the ordering oracle attaches one through
 * Pipeline::attachOracle().
 */
struct RetireObserver
{
    virtual ~RetireObserver() = default;
    virtual void retired(const DynInst &inst) = 0;
};

/**
 * The ROB owns every in-flight instruction; other structures (issue
 * queues, LSQ) hold non-owning pointers that must be dropped when the
 * ROB squashes. "Owns" means: retiring or squashing an entry returns
 * it to the pool, after which any surviving pointer is dangling and
 * must only be dereferenced behind a sequence-number guard.
 */
class Rob
{
  public:
    Rob(unsigned capacity, DynInstPool &pool);

    bool full() const { return insts_.full(); }
    bool empty() const { return insts_.empty(); }
    std::size_t size() const { return insts_.size(); }
    unsigned capacity() const
    {
        return static_cast<unsigned>(insts_.capacity());
    }

    /** Append at the tail (program order). The ROB takes ownership. */
    DynInst *allocate(DynInst *inst);

    /** Oldest instruction, or nullptr when empty. */
    DynInst *head() { return insts_.empty() ? nullptr
                                            : insts_.front(); }
    const DynInst *
    head() const
    {
        return insts_.empty() ? nullptr : insts_.front();
    }

    /** Youngest instruction, or nullptr when empty. */
    DynInst *tail() { return insts_.empty() ? nullptr
                                            : insts_.back(); }

    /** Retire the head instruction (must exist); recycles it. */
    void retireHead();

    /** Attach (or detach with nullptr) the retire hook. */
    void setRetireObserver(RetireObserver *obs)
    {
        retireObserver_ = obs;
    }

    /**
     * Remove all instructions with seq >= @p from_seq (inclusive
     * squash), invoking @p on_squash on each before recycling,
     * youngest first.
     */
    template <typename Fn>
    void
    squashFrom(SeqNum from_seq, Fn &&on_squash)
    {
        while (!insts_.empty() && insts_.back()->seq >= from_seq) {
            DynInst *inst = insts_.back();
            inst->stage = InstStage::Squashed;
            on_squash(inst);
            insts_.pop_back();
            pool_.release(inst);
        }
    }

    /** Iterate oldest to youngest. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < insts_.size(); ++i)
            fn(insts_[i]);
    }

  private:
    RingBuffer<DynInst *> insts_;
    DynInstPool &pool_;
    RetireObserver *retireObserver_ = nullptr;
};

} // namespace dmdc

#endif // DMDC_CORE_ROB_HH
