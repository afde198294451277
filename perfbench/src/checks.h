// Output checks: every byte the workloads write into ArkFS and read back
// out is compared against what the seeded generators say it must be.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vfs.h"
#include "sim/disk.h"
#include "workloads/dataset.h"

namespace perfbench {

struct CheckCount {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;

  void Add(const CheckCount& other) {
    checked += other.checked;
    failed += other.failed;
  }
};

// Parses the USTAR archive `archive_name` on `disk` and compares every
// member byte-for-byte with the dataset file of the same name. One check
// per dataset file; a file that is missing, duplicated or different fails,
// and so does every file when the archive does not parse.
CheckCount VerifyRetrievedTar(arkfs::sim::SimDisk& disk,
                              const std::string& archive_name,
                              const std::vector<arkfs::workloads::DatasetFile>& files);

// Reads each dataset file back from `dir` on `vfs` and compares it
// byte-for-byte with its generated content.
CheckCount VerifyExtractedFiles(arkfs::Vfs& vfs, const std::string& dir,
                                const std::vector<arkfs::workloads::DatasetFile>& files);

// Seeded per-file bytes for the mdtest_hard workload: distinct for every
// (seed, round, process, index), so a read served from the wrong file or
// offset cannot match.
arkfs::Bytes MdtestFileContent(std::uint64_t seed, int round, int process,
                               int index, std::size_t size);

// Mixes values into one 64-bit seed (splitmix64 finalizer per step).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                      std::uint64_t c = 0);

}  // namespace perfbench
