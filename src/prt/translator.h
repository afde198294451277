// PRT — the POSIX-REST Translator (paper §III-F).
//
// Everything above this layer thinks in POSIX terms (inodes, dentry blocks,
// byte-addressed file data); everything below is REST object operations.
// The translator:
//
//  * serializes/deserializes metadata records to their schema keys,
//  * splits byte-addressed file I/O into fixed-size data chunks
//    ("The PRT module divides the file data into multiple objects if the
//    file size exceeds the maximum object size"),
//  * hides backend capability differences: on a store without partial
//    writes (S3-style) a sub-chunk write becomes read-modify-write of the
//    whole chunk — the same amplification S3FS pays for random writes.
#pragma once

#include <array>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fence.h"
#include "meta/dentry.h"
#include "meta/inode.h"
#include "objstore/async_io.h"
#include "objstore/object_store.h"
#include "prt/key_schema.h"

namespace arkfs {

class Prt {
 public:
  // chunk_size == 0 selects the store's max object size.
  explicit Prt(ObjectStorePtr store, std::uint64_t chunk_size = 0,
               AsyncIoConfig async_config = {});

  // --- Metadata objects ---
  Result<Inode> LoadInode(const Uuid& ino);
  // Many inodes as overlapped MultiGets of at most the async layer's
  // max_in_flight each; result[i] is inos[i]'s inode or its own error.
  std::vector<Result<Inode>> LoadInodes(const std::vector<Uuid>& inos);
  Status StoreInode(const Inode& inode);
  Status DeleteInode(const Uuid& ino);

  // All per-directory metadata objects fetched with overlapped batches
  // (new-leader fast path). The first MultiGet speculatively covers dir
  // inode + journal probe + dentry manifest + legacy block + BOTH slot
  // objects of every shard a `shard_hint`-way layout would have (the live
  // slot isn't known until the manifest decodes); when the hint matches the
  // manifest (or the directory is legacy / never sharded) bootstrap costs
  // exactly one store round trip. A mismatched hint costs one extra
  // overlapped batch for the actual live shard set.
  struct DirObjects {
    Result<Inode> inode{ErrStatus(Errc::kIo, "not loaded")};
    Result<std::vector<Dentry>> dentries{ErrStatus(Errc::kIo, "not loaded")};
    Result<Bytes> journal{ErrStatus(Errc::kIo, "not loaded")};  // raw frames
    std::uint32_t shard_count = 0;       // 0 = legacy unsharded layout
    std::uint64_t entry_count_hint = 0;  // manifest hint (sharded only)
  };
  DirObjects LoadDirObjects(const Uuid& dir_ino, std::uint32_t shard_hint = 1);

  Result<std::vector<Dentry>> LoadDentryBlock(const Uuid& dir_ino);
  Status StoreDentryBlock(const Uuid& dir_ino,
                          const std::vector<Dentry>& entries);
  Status DeleteDentryBlock(const Uuid& dir_ino);

  // --- Sharded dentry layout ---
  // The manifest is the layout authority; kNoEnt means the directory is
  // still on the legacy unsharded layout (or has never been checkpointed).
  Result<DentryManifest> LoadDentryManifest(const Uuid& dir_ino);
  Status StoreDentryManifest(const Uuid& dir_ino, const DentryManifest& m);

  // Single-shard ops against one slot object. A missing slot object reads
  // as empty (an all-entries-removed shard may also be materialized as an
  // empty object — both decode to no entries).
  Result<std::vector<Dentry>> LoadDentryShard(const Uuid& dir_ino,
                                              std::uint32_t shard_count,
                                              std::uint32_t shard,
                                              std::uint32_t slot = 0);
  Status StoreDentryShard(const Uuid& dir_ino, std::uint32_t shard_count,
                          std::uint32_t shard,
                          const std::vector<Dentry>& entries,
                          std::uint32_t slot = 0, std::uint64_t epoch = 1);
  Status DeleteDentryShard(const Uuid& dir_ino, std::uint32_t shard_count,
                           std::uint32_t shard, std::uint32_t slot);

  // Loads the named shards' LIVE slot objects (per the manifest) with one
  // MultiGet; result[i] holds shards[i] (missing objects read as empty,
  // epoch 0). Decoding is strict: an undecodable live-slot object fails the
  // load loudly. By construction the manifest only ever references fully
  // landed slot objects (checkpoints write the inactive slot and flip the
  // manifest afterwards), so garbage here means real store corruption —
  // silently reading it as empty would drop settled entries.
  Result<std::vector<DentryShardData>> LoadDentryShards(
      const Uuid& dir_ino, const DentryManifest& manifest,
      const std::vector<std::uint32_t>& shards);

  // Layout-aware full read: consults the manifest, then merges all shards
  // (sharded) or reads the unsharded block (legacy). Missing objects read
  // as an empty directory.
  Result<std::vector<Dentry>> LoadDentries(const Uuid& dir_ino);

  // Deletes every dentry object of the directory regardless of layout:
  // manifest + all shard generations (via a prefix LIST) + the legacy block.
  Status DeleteDentryObjects(const Uuid& dir_ino);

  // --- Journal objects (raw; framing is the journal module's business) ---
  Result<Bytes> LoadJournal(const Uuid& dir_ino);
  Status StoreJournal(const Uuid& dir_ino, ByteSpan data);
  Status DeleteJournal(const Uuid& dir_ino);

  // --- Per-directory fence record ("f<uuid>", lease-HA split-brain guard) ---
  // A missing fence object reads as the zero token (legacy directory, never
  // fenced); a torn/corrupt one fails loudly — silently reading it as zero
  // would let a deposed leader past the fence.
  Result<FenceToken> LoadDirFence(const Uuid& dir_ino);
  Status StoreDirFence(const Uuid& dir_ino, const FenceToken& token);
  Status DeleteDirFence(const Uuid& dir_ino);

  // --- File data ---
  // Reads [offset, offset+length) clamped to file_size. Holes read as zeros.
  Result<Bytes> ReadData(const Uuid& ino, std::uint64_t offset,
                         std::uint64_t length, std::uint64_t file_size);

  // Batched multi-segment read of one file: all chunk pieces of all segments
  // go out as a single MultiGet (read-ahead windows, scatter reads). Each
  // (offset, length) segment yields one buffer with hole semantics, clamped
  // to file_size like ReadData.
  std::vector<Result<Bytes>> MultiReadData(
      const Uuid& ino, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& segments,
      std::uint64_t file_size);

  // Writes data at offset, splitting across chunk objects.
  Status WriteData(const Uuid& ino, std::uint64_t offset, ByteSpan data);

  // Writes exactly one whole chunk (cache flush fast path; chunk-aligned).
  Status WriteChunk(const Uuid& ino, std::uint64_t chunk_index, ByteSpan data);
  Result<Bytes> ReadChunk(const Uuid& ino, std::uint64_t chunk_index);

  // Shrinks/extends file data objects to new_size (drops orphaned chunks and
  // trims the boundary chunk).
  Status TruncateData(const Uuid& ino, std::uint64_t old_size,
                      std::uint64_t new_size);

  // Deletes every data chunk of the file.
  Status DeleteData(const Uuid& ino, std::uint64_t file_size);

  std::uint64_t chunk_size() const { return chunk_size_; }
  ObjectStore& store() { return *store_; }
  const ObjectStorePtr& store_ptr() const { return store_; }
  // The shared submission layer every hot path above this fans out through.
  AsyncObjectIo& async() { return *async_; }
  const AsyncObjectIoPtr& async_ptr() const { return async_; }

  std::uint64_t ChunkIndexFor(std::uint64_t offset) const {
    return offset / chunk_size_;
  }
  std::uint64_t NumChunksFor(std::uint64_t file_size) const {
    return file_size == 0 ? 0 : (file_size - 1) / chunk_size_ + 1;
  }

 private:
  // On whole-object backends a sub-chunk write is read-modify-write of the
  // chunk. With batched submissions two callers can now RMW the *same*
  // chunk concurrently (e.g. cache flush of several entries that share one
  // chunk), which loses updates; writes to one chunk key must serialize.
  // Striped so unrelated chunks still overlap.
  std::mutex& ChunkWriteLock(const std::string& key) {
    return chunk_write_mu_[std::hash<std::string>{}(key) % chunk_write_mu_.size()];
  }

  ObjectStorePtr store_;
  std::uint64_t chunk_size_;
  AsyncObjectIoPtr async_;
  std::array<std::mutex, 64> chunk_write_mu_;
};

}  // namespace arkfs
