// Misuse-detection tests: the runtime must fail loudly (panic) on API
// misuse rather than corrupt the object space.

#include <gtest/gtest.h>

#include "src/core/amber.h"

namespace amber {
namespace {

class Cell : public Object {
 public:
  int Get() const { return v_; }

 private:
  int v_ = 0;
};

Runtime::Config TestConfig() {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  return c;
}

TEST(RuntimeGuardTest, SecondRunRejected) {
  Runtime rt(TestConfig());
  rt.Run([] {});
  EXPECT_DEATH(rt.Run([] {}), "one program execution");
}

TEST(RuntimeGuardTest, TwoRuntimesRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(Runtime second(TestConfig()), "only one Runtime");
}

TEST(RuntimeGuardTest, JoinTwiceRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto c = New<Cell>();
    auto t = StartThread(c, &Cell::Get);
    t.Join();
    t.Join();
  }),
               "joined twice");
}

TEST(RuntimeGuardTest, MoveThreadObjectRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([&] {
    auto c = New<Cell>();
    auto t = StartThread(c, &Cell::Get);
    rt.MoveTo(t.object(), 1);
  }),
               "thread objects");
}

TEST(RuntimeGuardTest, DeleteWithAttachedChildrenRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto parent = New<Cell>();
    auto child = New<Cell>();
    Attach(child, parent);
    Delete(parent);
  }),
               "unattach");
}

TEST(RuntimeGuardTest, DeleteAttachedChildRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto parent = New<Cell>();
    auto child = New<Cell>();
    Attach(child, parent);
    Delete(child);
  }),
               "unattach");
}

TEST(RuntimeGuardTest, DoubleAttachRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto a = New<Cell>();
    auto b = New<Cell>();
    auto c = New<Cell>();
    Attach(a, b);
    Attach(a, c);
  }),
               "already attached");
}

TEST(RuntimeGuardTest, UnattachDetachedRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto a = New<Cell>();
    Unattach(a);
  }),
               "not attached");
}

TEST(RuntimeGuardTest, AttachImmutableRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto a = New<Cell>();
    auto b = New<Cell>();
    MakeImmutable(a);
    Attach(a, b);
  }),
               "immutable");
}

TEST(RuntimeGuardTest, MoveToInvalidNodeRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    auto a = New<Cell>();
    MoveTo(a, 99);
  }),
               "");
}

TEST(RuntimeGuardTest, DanglingReferencePanicsOnUse) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([&] {
    auto a = New<Cell>();
    Cell* raw = a.unchecked();
    Delete(a);
    // The descriptor is gone; a stale reference resolves via the home node
    // which must detect the dangling use.
    Ref<Cell> stale(raw);
    // Probe from the other node so the lookup is uninitialized there.
    class Prober : public Object {
     public:
      int Probe(Ref<Cell> c) { return c.Call(&Cell::Get); }
    };
    auto p = NewOn<Prober>(1);
    p.Call(&Prober::Probe, stale);
  }),
               "dangling");
}

TEST(RuntimeGuardTest, DanglingReferencePanicsWhereTheObjectDied) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([&] {
    auto a = New<Cell>();
    Cell* raw = a.unchecked();
    Delete(a);
    // Used on the node that held it: the header no longer names this node
    // as owner, so the check reaches the table, which no longer knows it.
    Ref<Cell> stale(raw);
    stale.Call(&Cell::Get);
  }),
               "dangling");
}

TEST(RuntimeGuardTest, BarrierRequiresParties) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([] {
    class Bad : public Object {
     public:
      Bad() : b_(0) {}
      Barrier b_;
    };
    New<Bad>();
  }),
               "at least one");
}

}  // namespace
}  // namespace amber
