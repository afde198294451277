#include "checks.h"

#include <cstdio>
#include <unordered_map>

#include "common/rng.h"
#include "workloads/minitar.h"

namespace perfbench {

using arkfs::Bytes;
using arkfs::workloads::DatasetFile;

namespace {

std::uint64_t Finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Names each failed check on standard error, so a failing run says which
// file broke and how.
void Report(const std::string& where, const std::string& name,
            const std::string& why) {
  std::fprintf(stderr, "check failed: %s %s: %s\n", where.c_str(),
               name.c_str(), why.c_str());
}

}  // namespace

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) {
  std::uint64_t h = Finalize(seed + 0x9E3779B97F4A7C15ull);
  for (std::uint64_t v : {a, b, c}) h = Finalize(h ^ (v + 0x9E3779B97F4A7C15ull));
  return h;
}

CheckCount VerifyRetrievedTar(arkfs::sim::SimDisk& disk,
                              const std::string& archive_name,
                              const std::vector<DatasetFile>& files) {
  CheckCount count;
  count.checked = files.size();
  auto archive = disk.ReadFile(archive_name);
  if (!archive.ok()) {
    Report(archive_name, "", archive.status().ToString());
    count.failed = files.size();
    return count;
  }
  std::unordered_map<std::string, const DatasetFile*> expected;
  for (const auto& f : files) expected[f.name] = &f;
  std::unordered_map<std::string, bool> seen;  // name -> content matched
  arkfs::workloads::TarReader reader(
      [&](std::uint64_t offset, std::uint64_t length) -> arkfs::Result<Bytes> {
        if (offset > archive->size()) return Bytes{};
        const std::uint64_t n = std::min<std::uint64_t>(
            length, archive->size() - offset);
        return Bytes(archive->begin() + static_cast<std::ptrdiff_t>(offset),
                     archive->begin() + static_cast<std::ptrdiff_t>(offset + n));
      },
      archive->size());
  std::uint64_t unexpected = 0;
  while (true) {
    auto next = reader.NextEntry();
    if (!next.ok()) {
      Report(archive_name, "", next.status().ToString());
      count.failed = files.size();
      return count;
    }
    if (next->done) break;
    const std::string& name = next->entry.name;
    auto it = expected.find(name);
    if (it == expected.end() || seen.count(name) != 0) {
      Report(archive_name, name, "unexpected or repeated member");
      ++unexpected;
      seen[name] = false;
      continue;
    }
    auto content = reader.ReadContent(next->entry, next->content_offset);
    seen[name] = content.ok() &&
                 arkfs::workloads::VerifyDatasetFile(*it->second, *content);
    if (!seen[name]) Report(archive_name, name, "content differs");
  }
  for (const auto& f : files) {
    auto it = seen.find(f.name);
    if (it == seen.end()) Report(archive_name, f.name, "missing");
    if (it == seen.end() || !it->second) ++count.failed;
  }
  count.failed = std::min<std::uint64_t>(count.failed + unexpected,
                                         files.size());
  return count;
}

CheckCount VerifyExtractedFiles(arkfs::Vfs& vfs, const std::string& dir,
                                const std::vector<DatasetFile>& files) {
  CheckCount count;
  const arkfs::UserCred cred = arkfs::UserCred::Root();
  for (const auto& f : files) {
    ++count.checked;
    const std::string path = dir + "/" + f.name;
    auto data = vfs.ReadWholeFile(path, cred);
    if (!data.ok()) {
      Report("extracted", path, data.status().ToString());
      ++count.failed;
    } else if (!arkfs::workloads::VerifyDatasetFile(f, *data)) {
      Report("extracted", path,
             "content differs (" + std::to_string(data->size()) + " of " +
                 std::to_string(f.size) + " bytes)");
      ++count.failed;
    }
  }
  return count;
}

Bytes MdtestFileContent(std::uint64_t seed, int round, int process, int index,
                        std::size_t size) {
  arkfs::Rng rng(MixSeed(seed, static_cast<std::uint64_t>(round),
                         static_cast<std::uint64_t>(process),
                         static_cast<std::uint64_t>(index)));
  Bytes data(size);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t v = rng.Next();
    for (std::size_t b = 0; b < 8 && i + b < size; ++b) {
      data[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  return data;
}

}  // namespace perfbench
