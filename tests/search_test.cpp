// The search/download lifecycle SocialTube and NetTube share: SearchBook
// (records, in-flight ids, flood dedup stamps, snapshot framing) and
// DownloadDriver (provider -> watch, stripes, the server path).
#include "vod/search.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace st::vod {
namespace {

using st::testing::Stack;
using st::testing::miniCatalog;

constexpr UserId kAlice{0};
constexpr UserId kBob{1};
constexpr UserId kCarol{2};
constexpr UserId kDave{3};
constexpr VideoId kVideo{0};

using Book = SearchBook<SearchRecord>;

SearchRecord recordFor(UserId user, sim::SimTime requestTime = 0) {
  SearchRecord record;
  record.user = user;
  record.video = kVideo;
  record.requestTime = requestTime;
  return record;
}

void encode(snapshot::Writer& out, const SearchRecord& record) {
  out.u32(record.user.value());
  out.u32(record.video.value());
  out.i64(record.requestTime);
}

SearchRecord decode(snapshot::Reader& in) {
  SearchRecord record;
  record.user = UserId{in.u32()};
  record.video = VideoId{in.u32()};
  record.requestTime = in.i64();
  return record;
}

// Saves `book` through a snapshot file and opens a reader on it.
snapshot::Reader saved(const Book& book) {
  snapshot::Writer w;
  book.saveState(w, encode);
  const std::string path = ::testing::TempDir() + "st_search_book.snap";
  std::string error;
  EXPECT_TRUE(w.writeFile(path, &error)) << error;
  std::vector<std::uint8_t> file;
  EXPECT_TRUE(snapshot::Reader::readFile(path, &file, &error)) << error;
  std::remove(path.c_str());
  return snapshot::Reader(std::move(file));
}

TEST(SearchBook, BeginAbandonsTheUsersPreviousSearch) {
  sim::Simulator sim;
  Book book(sim, 4);
  int expired = 0;
  const Book::Id first = book.begin(recordFor(kAlice));
  book.find(first)->deadline = sim.schedule(sim::kSecond, [&] { ++expired; });
  const Book::Id second = book.begin(recordFor(kAlice));
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, first);
  EXPECT_EQ(book.find(first), nullptr);
  EXPECT_NE(book.find(second), nullptr);
  sim.run();
  EXPECT_EQ(expired, 0);  // the abandoned search's deadline was cancelled
}

TEST(SearchBook, TakeReturnsTheRecordAndCancelsItsDeadline) {
  sim::Simulator sim;
  Book book(sim, 4);
  int expired = 0;
  const Book::Id alice = book.begin(recordFor(kAlice, 5 * sim::kSecond));
  const Book::Id bob = book.begin(recordFor(kBob));
  book.find(alice)->deadline = sim.schedule(sim::kSecond, [&] { ++expired; });
  const SearchRecord taken = book.take(alice);
  EXPECT_EQ(taken.user, kAlice);
  EXPECT_EQ(taken.requestTime, 5 * sim::kSecond);
  EXPECT_EQ(book.find(alice), nullptr);
  book.abandon(kAlice);  // nothing in flight any more
  EXPECT_NE(book.find(bob), nullptr);
  sim.run();
  EXPECT_EQ(expired, 0);
}

TEST(SearchBook, SeenMarksEachNodeOncePerQuery) {
  sim::Simulator sim;
  Book book(sim, 4);
  const Book::Id alice = book.begin(recordFor(kAlice));
  const Book::Id bob = book.begin(recordFor(kBob));
  EXPECT_FALSE(book.seen(kCarol, alice));
  EXPECT_TRUE(book.seen(kCarol, alice));
  EXPECT_FALSE(book.seen(kDave, alice));  // stamps are per node
  EXPECT_FALSE(book.seen(kCarol, bob));
}

TEST(SearchBook, RestoreReproducesRecordsStampsAndIds) {
  sim::Simulator sim;
  Book book(sim, 4);
  const Book::Id alice = book.begin(recordFor(kAlice));
  const Book::Id bob = book.begin(recordFor(kBob, 5 * sim::kSecond));
  (void)book.take(alice);  // leaves a free slot with a bumped generation
  (void)book.seen(kCarol, bob);

  snapshot::Reader r = saved(book);
  Book restored(sim, 4);
  ASSERT_TRUE(restored.loadState(r, "Test", decode)) << r.error();
  EXPECT_EQ(restored.find(alice), nullptr);
  ASSERT_NE(restored.find(bob), nullptr);
  EXPECT_EQ(restored.find(bob)->user, kBob);
  EXPECT_EQ(restored.find(bob)->requestTime, 5 * sim::kSecond);
  EXPECT_TRUE(restored.seen(kCarol, bob));
  // Same free list and generations: both books hand out the same next id.
  EXPECT_EQ(restored.begin(recordFor(kAlice)), book.begin(recordFor(kAlice)));
  // Bob's in-flight id came back too: a new search of his abandons it.
  (void)restored.begin(recordFor(kBob));
  EXPECT_EQ(restored.find(bob), nullptr);
}

TEST(SearchBook, RestoreRejectsAUserOutsideTheCatalogNamingTheOwner) {
  sim::Simulator sim;
  Book book(sim, 8);
  (void)book.begin(recordFor(UserId{7}));
  snapshot::Reader r = saved(book);
  Book smaller(sim, 4);
  EXPECT_FALSE(smaller.loadState(r, "Owner", decode));
  EXPECT_NE(r.error().find("Owner search user out of range"),
            std::string::npos)
      << r.error();
}

// Routes the driver's server-watch tag the way the systems' factories do.
// Borrows the session component id: the Stack runs no session driver.
class ServerWatchRoute final : public sim::EventFactory {
 public:
  static constexpr sim::Component kComponent = sim::Component::kSession;
  static constexpr std::uint8_t kServerWatch = 0;

  ServerWatchRoute(Stack& stack, DownloadDriver& driver)
      : stack_(stack), driver_(driver) {
    stack_.sim().registerFactory(kComponent, this);
  }
  ~ServerWatchRoute() override {
    stack_.sim().registerFactory(kComponent, nullptr);
  }
  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
    return stack_.ctx().wrapStage(tag,
                                  [this, tag] { driver_.serverWatch(tag); });
  }
  void discard(const sim::EventTag& tag) override {
    stack_.ctx().freePayloadIfLive(tag.c);
  }

 private:
  Stack& stack_;
  DownloadDriver& driver_;
};

class DownloadDriverTest : public ::testing::Test {
 protected:
  explicit DownloadDriverTest(std::size_t bodySources = 1)
      : stack_(miniCatalog(4, 1, 1, 3), configWith(bodySources)),
        driver_(stack_.ctx(), stack_.transfers(),
                ServerWatchRoute::kComponent, ServerWatchRoute::kServerWatch),
        route_(stack_, driver_),
        caches_(4) {
    for (std::uint32_t u = 0; u < 4; ++u) {
      stack_.ctx().setOnline(UserId{u}, true);
    }
  }

  static VodConfig configWith(std::size_t bodySources) {
    VodConfig config;
    config.bodySources = bodySources;
    return config;
  }
  std::uint64_t uploaded(UserId user) {
    return stack_.network().flows().bytesUploaded(
        stack_.ctx().endpointOf(user));
  }

  Stack stack_;
  DownloadDriver driver_;
  ServerWatchRoute route_;
  std::vector<VideoCache> caches_;
};

TEST_F(DownloadDriverTest, NoProviderRequestsTheWatchFromTheServer) {
  driver_.start(recordFor(kAlice), UserId::invalid(), caches_, [] {
    ADD_FAILURE() << "neighbours consulted without striping";
    return std::vector<UserId>{};
  });
  // The request is in flight to the server, its stripe list in the pool.
  EXPECT_EQ(stack_.ctx().livePayloads(), 1u);
  EXPECT_TRUE(stack_.client().playbacks.empty());
  stack_.sim().run();
  EXPECT_EQ(stack_.ctx().livePayloads(), 0u);
  ASSERT_EQ(stack_.client().playbacks.size(), 1u);
  EXPECT_GT(stack_.client().playbacks[0].delay, 0);
  EXPECT_EQ(stack_.metrics().serverChunks(kAlice), 20u);
}

TEST_F(DownloadDriverTest, ServerRequestOfAUserWhoLeftIsDroppedAndFreed) {
  driver_.start(recordFor(kAlice), UserId::invalid(), caches_,
                [] { return std::vector<UserId>{}; });
  stack_.ctx().setOnline(kAlice, false);
  stack_.sim().run();
  EXPECT_EQ(stack_.ctx().livePayloads(), 0u);
  EXPECT_TRUE(stack_.client().playbacks.empty());
  EXPECT_EQ(stack_.metrics().serverChunks(kAlice), 0u);
}

class StripingDriverTest : public DownloadDriverTest {
 protected:
  StripingDriverTest() : DownloadDriverTest(/*bodySources=*/2) {}
};

TEST_F(StripingDriverTest, StripesOnTheFirstOnlineHolderBesidesTheProvider) {
  caches_[kBob.index()].insert(kVideo);
  caches_[kCarol.index()].insert(kVideo);
  caches_[kDave.index()].insert(kVideo);
  stack_.ctx().setOnline(kCarol, false);
  // Preference order: the provider itself and an offline holder are
  // skipped; two body sources leave room for one stripe (Dave).
  driver_.start(recordFor(kAlice), kBob, caches_,
                [] { return std::vector<UserId>{kBob, kCarol, kDave}; });
  EXPECT_EQ(stack_.ctx().livePayloads(), 0u);  // peer path: no server trip
  stack_.sim().run();
  EXPECT_GT(uploaded(kBob), 0u);
  EXPECT_GT(uploaded(kDave), 0u);
  EXPECT_EQ(uploaded(kCarol), 0u);
  EXPECT_EQ(stack_.metrics().serverChunks(kAlice), 0u);
}

TEST_F(StripingDriverTest, ServerPathCarriesTheStripesThroughThePayload) {
  caches_[kDave.index()].insert(kVideo);
  driver_.start(recordFor(kAlice), UserId::invalid(), caches_,
                [] { return std::vector<UserId>{kBob, kDave}; });
  stack_.sim().run();
  EXPECT_EQ(uploaded(kBob), 0u);  // holds nothing
  EXPECT_GT(uploaded(kDave), 0u);
  EXPECT_GT(stack_.metrics().serverChunks(kAlice), 0u);
}

}  // namespace
}  // namespace st::vod
