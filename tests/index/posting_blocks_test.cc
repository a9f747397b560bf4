#include "index/posting_blocks.h"

#include <algorithm>
#include <memory>
#include <random>
#include <string>

#include "gtest/gtest.h"
#include "common/varint.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"

namespace gks {
namespace {

// Random document-ordered duplicate-free id set; depth and fan-out skewed
// the way real corpora are (shallow trees, hot low components).
PackedIds RandomSortedIds(std::mt19937* rng, size_t n) {
  PostingList list;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> comps;
    size_t depth = 1 + (*rng)() % 6;
    comps.push_back(1);
    for (size_t d = 1; d < depth; ++d) {
      // Occasional big ordinals exercise multi-byte varints and deltas.
      uint32_t c = (*rng)() % 16 == 0 ? (*rng)() % 100000 : (*rng)() % 40;
      comps.push_back(c);
    }
    list.Add(DeweyId(comps));
  }
  list.Finalize();
  PackedIds out;
  for (size_t i = 0; i < list.size(); ++i) out.Add(list.At(i));
  return out;
}

std::string EncodeToBlob(const PackedIds& ids) {
  std::string blob;
  EncodeBlockPostings(ids, &blob);
  return blob;
}

// Builds a block-backed PostingList over an owned copy of the blob.
PostingList BlockBackedList(const std::string& blob) {
  auto owned = std::make_shared<std::string>(blob);
  std::string_view view = *owned;
  PostingList list;
  Status st = PostingList::FromEncodedBlocks(&view, owned, &list);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_TRUE(view.empty()) << "blob not fully consumed";
  return list;
}

TEST(PostingBlocksTest, EmptyListRoundTrips) {
  PackedIds empty;
  std::string blob = EncodeToBlob(empty);
  std::string_view in = blob;
  BlockPostingsView view;
  ASSERT_TRUE(BlockPostingsView::Parse(&in, &view).ok());
  EXPECT_EQ(view.id_count(), 0u);
  EXPECT_EQ(view.block_count(), 0u);
  PackedIds decoded;
  ASSERT_TRUE(view.DecodeAll(&decoded).ok());
  EXPECT_EQ(decoded.size(), 0u);
}

TEST(PostingBlocksTest, RoundTripAcrossSizes) {
  std::mt19937 rng(11);
  // Hit the single-block, exactly-one-boundary and many-block regimes.
  for (size_t n : {1ul, 2ul, 127ul, 128ul, 129ul, 400ul, 5000ul}) {
    PackedIds ids = RandomSortedIds(&rng, n);
    std::string blob = EncodeToBlob(ids);
    std::string_view in = blob;
    BlockPostingsView view;
    ASSERT_TRUE(BlockPostingsView::Parse(&in, &view).ok()) << "n=" << n;
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(view.id_count(), ids.size());
    EXPECT_EQ(view.block_count(),
              (ids.size() + kPostingBlockSize - 1) / kPostingBlockSize);
    PackedIds decoded;
    ASSERT_TRUE(view.DecodeAll(&decoded).ok());
    ASSERT_EQ(decoded.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(decoded.At(i).Compare(ids.At(i)), 0) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PostingBlocksTest, SkipTableMatchesBlockContents) {
  std::mt19937 rng(17);
  PackedIds ids = RandomSortedIds(&rng, 1000);
  std::string blob = EncodeToBlob(ids);
  std::string_view in = blob;
  BlockPostingsView view;
  ASSERT_TRUE(BlockPostingsView::Parse(&in, &view).ok());
  size_t global = 0;
  for (size_t b = 0; b < view.block_count(); ++b) {
    EXPECT_EQ(view.block_id_begin(b), global);
    EXPECT_EQ(view.block_first(b).Compare(ids.At(global)), 0) << b;
    global += view.block_size(b);
    EXPECT_EQ(view.block_last(b).Compare(ids.At(global - 1)), 0) << b;
  }
  EXPECT_EQ(global, ids.size());
}

TEST(PostingBlocksTest, DeltaCodingBeatsV1FrontCodingOnDenseLists) {
  // A dense DBLP-shaped list: one posting per "article", diverging at the
  // article ordinal (values >= 128 -> 2-byte varints raw, 1-byte deltas).
  PackedIds ids;
  for (uint32_t article = 0; article < 20000; ++article) {
    std::vector<uint32_t> comps = {1, 200 + article, 3};
    DeweyId id(comps);
    ids.Add(DeweySpan::Of(id));
  }
  std::string v1;
  ids.EncodeTo(&v1);
  std::string v2 = EncodeToBlob(ids);
  EXPECT_LT(v2.size() * 3, v1.size() * 2)
      << "blocks " << v2.size() << "B vs v1 " << v1.size() << "B";
}

TEST(PostingBlocksTest, ParseRejectsTruncationEverywhere) {
  std::mt19937 rng(23);
  PackedIds ids = RandomSortedIds(&rng, 300);
  std::string blob = EncodeToBlob(ids);
  for (size_t cut = 0; cut < blob.size(); cut += 7) {
    std::string prefix = blob.substr(0, cut);
    std::string_view in = prefix;
    BlockPostingsView view;
    Status st = BlockPostingsView::Parse(&in, &view);
    if (!st.ok()) continue;  // rejected at parse: fine
    // Payload truncation can only surface at decode time if the skip
    // table happened to parse; decode must then fail, not crash.
    PackedIds decoded;
    (void)view.DecodeAll(&decoded);
  }
}

TEST(PostingBlocksTest, PostingListLazySizeAndMaterialize) {
  std::mt19937 rng(31);
  PackedIds ids = RandomSortedIds(&rng, 700);
  PostingList list = BlockBackedList(EncodeToBlob(ids));
  ASSERT_NE(list.block_view(), nullptr);
  EXPECT_FALSE(list.materialized());
  EXPECT_EQ(list.size(), ids.size()) << "size must not materialize";
  EXPECT_FALSE(list.materialized());
  // First random access materializes; contents match the oracle.
  for (size_t i = 0; i < ids.size(); i += 13) {
    ASSERT_EQ(list.At(i).Compare(ids.At(i)), 0) << i;
  }
  EXPECT_TRUE(list.materialized());
  EXPECT_TRUE(list.materialize_status().ok());
}

TEST(PostingBlocksTest, CursorSequentialScanMatchesOracle) {
  std::mt19937 rng(37);
  PackedIds ids = RandomSortedIds(&rng, 900);
  PostingList blocked = BlockBackedList(EncodeToBlob(ids));
  PostingCursor cursor(blocked);
  ASSERT_EQ(cursor.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_FALSE(cursor.AtEnd());
    ASSERT_EQ(cursor.position(), i);
    ASSERT_EQ(cursor.Head().Compare(ids.At(i)), 0) << i;
    cursor.Next();
  }
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_TRUE(cursor.status().ok());
}

TEST(PostingBlocksTest, CursorEmitAllMatchesOracle) {
  std::mt19937 rng(41);
  for (size_t n : {1ul, 128ul, 129ul, 777ul}) {
    PackedIds ids = RandomSortedIds(&rng, n);
    PostingList blocked = BlockBackedList(EncodeToBlob(ids));
    PostingCursor cursor(blocked);
    PackedIds emitted;
    cursor.EmitAll(&emitted);
    ASSERT_EQ(emitted.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(emitted.At(i).Compare(ids.At(i)), 0);
    }
    EXPECT_TRUE(cursor.AtEnd());
    // Emitting from a mid-list seek point must yield the suffix.
    PostingCursor tail(blocked);
    tail.SeekLowerBound(ids.At(ids.size() / 2));
    size_t start = tail.position();
    PackedIds suffix;
    tail.EmitAll(&suffix);
    ASSERT_EQ(suffix.size(), ids.size() - start);
    for (size_t i = 0; i < suffix.size(); ++i) {
      ASSERT_EQ(suffix.At(i).Compare(ids.At(start + i)), 0);
    }
  }
}

TEST(PostingBlocksTest, CursorSeeksMatchEagerCursor) {
  // The property that makes {v1, v2} search results identical: both
  // backends answer every forward seek with the same position.
  std::mt19937 rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    PackedIds ids = RandomSortedIds(&rng, 600);
    PostingList blocked = BlockBackedList(EncodeToBlob(ids));
    PostingList eager;
    for (size_t i = 0; i < ids.size(); ++i) eager.Add(ids.IdAt(i));
    eager.Finalize();

    PostingCursor a(blocked);
    PostingCursor b(eager);
    std::mt19937 ops(trial);
    while (!a.AtEnd() && !b.AtEnd()) {
      ASSERT_EQ(a.position(), b.position());
      ASSERT_EQ(a.Head().Compare(b.Head()), 0);
      switch (ops() % 3) {
        case 0: {
          a.Next();
          b.Next();
          break;
        }
        case 1: {
          // Seek to a random existing id at-or-after the current position
          // (cursors are forward-only).
          size_t target =
              a.position() + ops() % (ids.size() - a.position());
          // Mutate the last component sometimes so the target may fall
          // between stored ids.
          DeweyId id = ids.IdAt(target);
          a.SeekLowerBound(DeweySpan::Of(id));
          b.SeekLowerBound(DeweySpan::Of(id));
          break;
        }
        case 2: {
          size_t target =
              a.position() + ops() % (ids.size() - a.position());
          DeweySpan full = ids.At(target);
          // Seek to the subtree of a strict prefix of a real id: both
          // cursors must agree on position and membership verdict.
          uint32_t len = 1 + ops() % full.size;
          DeweySpan prefix{full.data, len};
          bool inside_a = a.SeekToSubtree(prefix);
          bool inside_b = b.SeekToSubtree(prefix);
          ASSERT_EQ(inside_a, inside_b);
          break;
        }
      }
    }
    EXPECT_EQ(a.AtEnd(), b.AtEnd());
    EXPECT_TRUE(a.status().ok()) << a.status().message();
  }
}

// ---- block addressing / top-k skip primitives -------------------------

// Multi-document id set: leading component is the document ordinal, so
// EmitWhileDocBelow and the top-k segment windows have real boundaries.
PackedIds MultiDocIds(std::mt19937* rng, size_t docs, size_t per_doc) {
  PostingList list;
  for (uint32_t doc = 0; doc < docs; ++doc) {
    for (size_t i = 0; i < per_doc; ++i) {
      std::vector<uint32_t> comps = {doc};
      size_t depth = 1 + (*rng)() % 4;
      for (size_t d = 0; d < depth; ++d) comps.push_back((*rng)() % 50);
      list.Add(DeweyId(comps));
    }
  }
  list.Finalize();
  PackedIds out;
  for (size_t i = 0; i < list.size(); ++i) out.Add(list.At(i));
  return out;
}

TEST(PostingBlocksTest, CursorBlockAddressingMatchesOracle) {
  std::mt19937 rng(53);
  for (size_t n : {1ul, 128ul, 129ul, 700ul}) {
    PackedIds ids = RandomSortedIds(&rng, n);
    PostingList blocked = BlockBackedList(EncodeToBlob(ids));
    PostingList eager;
    for (size_t i = 0; i < ids.size(); ++i) eager.Add(ids.IdAt(i));
    eager.Finalize();

    const size_t want_blocks =
        (ids.size() + kPostingBlockSize - 1) / kPostingBlockSize;
    for (const PostingList* list : {&blocked, &eager}) {
      PostingCursor cursor(*list);
      ASSERT_EQ(cursor.block_count(), want_blocks) << "n=" << n;
      for (size_t b = 0; b < want_blocks; ++b) {
        const size_t first = b * kPostingBlockSize;
        const size_t last = std::min(first + kPostingBlockSize, ids.size()) - 1;
        EXPECT_EQ(cursor.BlockFirst(b).Compare(ids.At(first)), 0) << b;
        EXPECT_EQ(cursor.BlockLast(b).Compare(ids.At(last)), 0) << b;
      }
      // block_index tracks the scan position without decoding ahead.
      for (size_t i = 0; i < ids.size(); i += 37) {
        while (cursor.position() < i) cursor.Next();
        EXPECT_EQ(cursor.block_index(), i / kPostingBlockSize) << i;
      }
    }
  }
}

TEST(PostingBlocksTest, CursorSeekPastBlockJumpsToNextBlockFirst) {
  std::mt19937 rng(59);
  PackedIds ids = RandomSortedIds(&rng, 1000);  // 8 blocks
  PostingList blocked = BlockBackedList(EncodeToBlob(ids));
  PostingList eager;
  for (size_t i = 0; i < ids.size(); ++i) eager.Add(ids.IdAt(i));
  eager.Finalize();

  for (const PostingList* list : {&blocked, &eager}) {
    PostingCursor cursor(*list);
    // Jump block to block: each landing must be the next block's first id.
    while (!cursor.AtEnd()) {
      const size_t b = cursor.block_index();
      cursor.SeekPastBlock(b);
      if ((b + 1) * kPostingBlockSize >= ids.size()) {
        EXPECT_TRUE(cursor.AtEnd());
      } else {
        ASSERT_FALSE(cursor.AtEnd());
        EXPECT_EQ(cursor.position(), (b + 1) * kPostingBlockSize);
        EXPECT_EQ(cursor.Head().Compare(ids.At(cursor.position())), 0);
      }
    }
    EXPECT_TRUE(cursor.status().ok());
  }

  // A seek issued right after a block jump must continue from the landing
  // point, never rewind into the skipped region.
  PostingCursor cursor(blocked);
  cursor.SeekPastBlock(1);  // lands at ids[256]
  ASSERT_EQ(cursor.position(), 2 * kPostingBlockSize);
  cursor.SeekLowerBound(ids.At(10));  // target far behind: must not move
  EXPECT_EQ(cursor.position(), 2 * kPostingBlockSize);
  cursor.SeekLowerBound(ids.At(2 * kPostingBlockSize + 50));
  EXPECT_EQ(cursor.position(), 2 * kPostingBlockSize + 50);
  EXPECT_EQ(cursor.Head().Compare(ids.At(cursor.position())), 0);
}

TEST(PostingBlocksTest, CursorEmitWhileDocBelowMatchesOracle) {
  std::mt19937 rng(61);
  PackedIds ids = MultiDocIds(&rng, 10, 60);
  PostingList blocked = BlockBackedList(EncodeToBlob(ids));
  PostingList eager;
  for (size_t i = 0; i < ids.size(); ++i) eager.Add(ids.IdAt(i));
  eager.Finalize();

  for (uint32_t doc_end = 0; doc_end <= 11; ++doc_end) {
    for (const PostingList* list : {&blocked, &eager}) {
      PostingCursor cursor(*list);
      PackedIds emitted;
      cursor.EmitWhileDocBelow(doc_end, &emitted);
      size_t want = 0;
      while (want < ids.size() && ids.At(want).data[0] < doc_end) ++want;
      ASSERT_EQ(emitted.size(), want) << "doc_end=" << doc_end;
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(emitted.At(i).Compare(ids.At(i)), 0);
      }
      if (want < ids.size()) {
        ASSERT_FALSE(cursor.AtEnd());
        EXPECT_EQ(cursor.position(), want);
      } else {
        EXPECT_TRUE(cursor.AtEnd());
      }
      // A second call with a later bound resumes where the first stopped.
      PackedIds more;
      cursor.EmitWhileDocBelow(doc_end + 3, &more);
      size_t want2 = want;
      while (want2 < ids.size() && ids.At(want2).data[0] < doc_end + 3) {
        ++want2;
      }
      ASSERT_EQ(more.size(), want2 - want);
    }
  }
}

TEST(PostingBlocksTest, CursorSurvivesCorruptPayload) {
  std::mt19937 rng(47);
  PackedIds ids = RandomSortedIds(&rng, 500);
  std::string blob = EncodeToBlob(ids);
  // Flip bytes in the payload area (the tail of the blob) — the skip
  // table still parses, decode fails lazily.
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = blob;
    size_t payload_zone = mutated.size() / 2;
    mutated[payload_zone + rng() % (mutated.size() - payload_zone)] ^=
        static_cast<char>(1 + rng() % 255);
    std::string_view in = mutated;
    BlockPostingsView view;
    if (!BlockPostingsView::Parse(&in, &view).ok()) continue;
    auto owned = std::make_shared<std::string>(mutated);
    std::string_view lin = *owned;
    PostingList list;
    if (!PostingList::FromEncodedBlocks(&lin, owned, &list).ok()) continue;
    PostingCursor cursor(list);
    PackedIds sink;
    cursor.EmitAll(&sink);  // must terminate without crashing
    if (!cursor.status().ok()) {
      EXPECT_TRUE(cursor.AtEnd());
    }
  }
}

// One hand-built block of a v2 posting blob: skip-table entry plus the raw
// delta payload, so a test can feed DecodeBlock bytes no encoder writes.
struct RawBlock {
  uint32_t count;
  std::vector<uint32_t> first;
  std::vector<uint32_t> last;
  std::string payload;
};

std::string RawBlob(const std::vector<RawBlock>& blocks) {
  std::string blob;
  uint64_t ids = 0;
  for (const RawBlock& block : blocks) ids += block.count;
  PutVarint64(&blob, ids);
  PutVarint64(&blob, blocks.size());
  for (const RawBlock& block : blocks) {
    PutVarint32(&blob, block.count);
    PutVarint32(&blob, static_cast<uint32_t>(block.payload.size()));
    PutVarint32(&blob, static_cast<uint32_t>(block.first.size()));
    for (uint32_t c : block.first) PutVarint32(&blob, c);
    PutVarint32(&blob, 0);  // last id shares nothing with the first
    PutVarint32(&blob, static_cast<uint32_t>(block.last.size()));
    for (uint32_t c : block.last) PutVarint32(&blob, c);
  }
  for (const RawBlock& block : blocks) blob += block.payload;
  return blob;
}

// DecodeBlock's corruption messages name the fault, so they are part of
// what an operator reads from a failed query or `gks inspect`.
TEST(PostingBlocksTest, DecodeBlockReportsEachCorruption) {
  // Payload {0x11, 0x00}: one delta (shared 1, fresh 1), id 1.0 -> 1.1.
  const std::string one_delta("\x11\x00", 2);
  struct Case {
    std::vector<RawBlock> blocks;
    size_t block;
    std::string message;
  };
  const std::vector<Case> cases = {
      // count 3 needs two deltas; the payload holds one.
      {{{3, {1, 0}, {1, 2}, one_delta}}, 0, "posting block truncated"},
      // Header 0x10: shared 1, fresh 0 — an id equal to a prefix of its
      // predecessor, impossible in a sorted duplicate-free list.
      {{{2, {1, 0}, {1, 1}, std::string("\x10\x00", 2)}},
       0,
       "posting block delta header out of range"},
      // Block 1 decodes its one delta, then finds a byte left over.
      {{{2, {1, 0}, {1, 1}, one_delta},
        {2, {2, 0}, {2, 1}, one_delta + '\x07'}},
       1,
       "posting block 1 has trailing bytes"},
  };
  for (const Case& c : cases) {
    const std::string blob = RawBlob(c.blocks);
    std::string_view in = blob;
    BlockPostingsView view;
    ASSERT_TRUE(BlockPostingsView::Parse(&in, &view).ok()) << c.message;
    PackedIds out;
    Status st = view.DecodeBlock(c.block, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << c.message;
    EXPECT_EQ(st.message(), c.message);
  }
}

}  // namespace
}  // namespace gks
