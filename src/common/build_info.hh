/**
 * @file
 * Build provenance: the configure-time git commit hash.
 *
 * Journals record the commit that produced them. Centralized here so
 * exactly one translation unit carries the DMDC_GIT_COMMIT
 * compile definition and every consumer (the journal writer,
 * --version) reports the same string.
 */

#ifndef DMDC_COMMON_BUILD_INFO_HH
#define DMDC_COMMON_BUILD_INFO_HH

namespace dmdc
{

/** Short git commit hash of this build ("unknown" outside a repo). */
const char *buildCommit();

} // namespace dmdc

#endif // DMDC_COMMON_BUILD_INFO_HH
