/**
 * @file
 * Atomic whole-file publication: write-to-temp + fsync + rename.
 *
 * Several subsystems publish small state files that other processes
 * read concurrently and that must survive a kill at any instant —
 * run-cache entries, campaign journals, trace files. POSIX rename()
 * within one filesystem is atomic, so a reader either sees the
 * previous complete file or the new complete file, never a torn one.
 * This helper centralizes the pattern so no caller hand-rolls it with
 * a plain std::ofstream again.
 *
 * Durability: rename alone survives SIGKILL but not power loss — the
 * kernel may reorder the rename's metadata ahead of the temp file's
 * data blocks, so a crash can leave the *new* name pointing at
 * garbage. writeFileAtomic() therefore fsyncs the temp file before
 * the rename and the parent directory after it. Tests that
 * hammer these paths thousands of times can opt out with
 * setDurableSync(false) (or DMDC_NO_FSYNC=1); production callers
 * never should.
 */

#ifndef DMDC_COMMON_ATOMIC_FILE_HH
#define DMDC_COMMON_ATOMIC_FILE_HH

#include <cstdint>
#include <string>

namespace dmdc
{

/**
 * Process-wide durability knob. Enabled by default; the environment
 * variable DMDC_NO_FSYNC=1 (read once, at first use) or an explicit
 * setDurableSync(false) disables the fsync calls — the write-to-temp
 * + rename atomicity is unaffected, only power-loss durability is
 * traded away. Meant for tests and throwaway sandboxes.
 */
void setDurableSync(bool enabled);
bool durableSyncEnabled();

/**
 * Number of fsync() calls this layer has issued (temp files, parent
 * directories). Monotonic, process-wide; tests diff it across an
 * operation to assert the durability path actually ran.
 */
std::uint64_t durableSyncCount();

/**
 * Write @p content to a temp file next to @p path and rename it into
 * place. The temp name embeds the caller's pid and thread id, so
 * concurrent writers (threads or processes sharing a directory) never
 * collide on the temp file and the last rename wins cleanly. With
 * durable sync enabled (the default) the temp file is fsynced before
 * the rename and the parent directory after it, so the publication
 * survives power loss, not just SIGKILL.
 *
 * Returns false when the temp file cannot be created/written/synced
 * or the rename fails (the temp file is removed in that case). A
 * failed *directory* fsync after a successful rename still returns
 * true — the file is visible and complete; only its crash-ordering
 * guarantee is weakened. Never throws; callers that treat publication
 * as best-effort can ignore the result.
 */
bool writeFileAtomic(const std::string &path,
                     const std::string &content);

} // namespace dmdc

#endif // DMDC_COMMON_ATOMIC_FILE_HH
