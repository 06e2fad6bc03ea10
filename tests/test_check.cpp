// Communication-correctness checker: synthetic message races, deadlock
// cycles, collective mismatches, finalize-time leak audits — plus the
// benign cases (fault-injected duplicates, tombstones, named receives)
// that must NOT be reported, and byte-determinism of every diagnostic.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "check/checker.hpp"
#include "fault/plan.hpp"
#include "mpsim/comm.hpp"

namespace stnb::check {
namespace {

using mpsim::CheckError;
using mpsim::Comm;
using mpsim::kAnySource;
using mpsim::kAnyTag;
using mpsim::RecvStatus;
using mpsim::Runtime;

/// Runs `fn`, asserts it throws CheckError of `kind`, returns the report.
template <typename Fn>
std::string expect_check_error(CheckError::Kind kind, Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind));
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
    return "";
  }
  ADD_FAILURE() << "expected a CheckError, none was thrown";
  return "";
}

// ---------------------------------------------------------------- wildcards

TEST(Check, WildcardRecvReportsMatchedSourceAndTag) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, /*tag=*/9, std::vector<int>{42});
    } else {
      RecvStatus status;
      const auto got = comm.recv<int>(kAnySource, kAnyTag, &status);
      EXPECT_EQ(got, std::vector<int>{42});
      EXPECT_EQ(status.source, 1);
      EXPECT_EQ(status.tag, 9);
    }
  });
}

TEST(Check, WildcardRaceDetectedWithCandidateDiagnostics) {
  // Ranks 1 and 2 both have a tag-5 message in flight toward rank 0's
  // wildcard receive: under a different schedule either could match
  // first. The report names every candidate by (comm, ranks, tag, seq).
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kRace, [&] {
        rt.run(3, [&](Comm& comm) {
          if (comm.rank() == 0) {
            (void)comm.recv<int>(kAnySource, /*tag=*/5);
            (void)comm.recv<int>(kAnySource, /*tag=*/5);
          } else {
            comm.send(0, /*tag=*/5, std::vector<int>{comm.rank()});
          }
        });
      });
  EXPECT_NE(report.find("message race"), std::string::npos);
  EXPECT_NE(report.find("send w 1->0 tag 5 seq 0"), std::string::npos);
  EXPECT_NE(report.find("send w 2->0 tag 5 seq 0"), std::string::npos);
  EXPECT_NE(report.find("rank 0"), std::string::npos);
}

/// Rank 0 takes three wildcard receives while ranks 1-3 each send it one
/// message; returns the race report. Which send wins each receive varies
/// from run to run.
std::string three_wildcard_race_report(mpsim::SchedConfig sched = {}) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.set_sched(sched);
  return expect_check_error(CheckError::Kind::kRace, [&] {
    rt.run(4, [&](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < 3; ++i) (void)comm.recv<int>(kAnySource, 5);
      } else {
        comm.send(0, /*tag=*/5, std::vector<int>{comm.rank()});
      }
    });
  });
}

TEST(Check, RaceReportIsByteIdenticalAcrossRuns) {
  const std::string first = three_wildcard_race_report();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(three_wildcard_race_report(), first);
}

TEST(Check, RaceReportIsScheduleIndependentUnderBothSchedulers) {
  // Every send could reach every one of the three receives under some
  // schedule, whichever won an earlier receive in this one: each receive
  // lists all three candidates, and the report never varies.
  const std::string first = three_wildcard_race_report();
  for (int recv = 0; recv < 3; ++recv)
    EXPECT_NE(first.find("wildcard recv #" + std::to_string(recv) +
                         " at rank 0 on comm w (source=any, tag=5): 3 "
                         "candidate sends"),
              std::string::npos)
        << first;
  for (const mpsim::SchedMode mode :
       {mpsim::SchedMode::kThreadPerRank, mpsim::SchedMode::kFiber}) {
    mpsim::SchedConfig sched;
    sched.mode = mode;
    sched.workers = 4;
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(three_wildcard_race_report(sched), first)
          << "run " << i << " in "
          << (mode == mpsim::SchedMode::kFiber ? "fiber" : "thread")
          << " mode";
  }
}

TEST(Check, NamedRecvsOfConcurrentSendsAreNotARace) {
  // The same communication pattern as the race fixture, but rank 0 names
  // its sources: each receive can only ever match one FIFO stream.
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.run(3, [&](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv<int>(2, 5), std::vector<int>{2});
      EXPECT_EQ(comm.recv<int>(1, 5), std::vector<int>{1});
    } else {
      comm.send(0, /*tag=*/5, std::vector<int>{comm.rank()});
    }
  });
}

TEST(Check, CausallyOrderedWildcardRecvsAreNotARace) {
  // Rank 2's send is a *reply* to a message that rank 0 sent after its
  // first receive completed — it can never race with rank 1's send, and
  // the vector clocks prove it.
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.run(3, [&](Comm& comm) {
    switch (comm.rank()) {
      case 0:
        (void)comm.recv<int>(kAnySource, /*tag=*/5);
        comm.send(2, /*tag=*/6, std::vector<int>{0});
        (void)comm.recv<int>(kAnySource, /*tag=*/5);
        break;
      case 1:
        comm.send(0, /*tag=*/5, std::vector<int>{1});
        break;
      case 2:
        (void)comm.recv<int>(0, /*tag=*/6);
        comm.send(0, /*tag=*/5, std::vector<int>{2});
        break;
      default:
        break;
    }
  });
}

// ---------------------------------------------------------------- deadlocks

TEST(Check, TwoRankDeadlockCycleIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kDeadlock, [&] {
        rt.run(2, [&](Comm& comm) {
          (void)comm.recv<int>(1 - comm.rank(), /*tag=*/7);
        });
      });
  EXPECT_NE(report.find("deadlock"), std::string::npos);
  EXPECT_NE(report.find("rank 0: blocked in recv on comm w (source=1, tag=7)"),
            std::string::npos);
  EXPECT_NE(report.find("rank 1: blocked in recv on comm w (source=0, tag=7)"),
            std::string::npos);
  EXPECT_NE(report.find("wait-for cycle: rank 0 -> rank 1 -> rank 0"),
            std::string::npos);
}

TEST(Check, ThreeRankDeadlockCycleIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kDeadlock, [&] {
        rt.run(3, [&](Comm& comm) {
          // 0 waits on 1, 1 waits on 2, 2 waits on 0.
          (void)comm.recv<int>((comm.rank() + 1) % 3, /*tag=*/3);
        });
      });
  EXPECT_NE(
      report.find("wait-for cycle: rank 0 -> rank 1 -> rank 2 -> rank 0"),
      std::string::npos);
}

TEST(Check, DeadlockBetweenCollectiveAndRecvIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kDeadlock, [&] {
        rt.run(2, [&](Comm& comm) {
          if (comm.rank() == 0) {
            comm.barrier();
          } else {
            (void)comm.recv<int>(0, /*tag=*/1);
          }
        });
      });
  EXPECT_NE(report.find("rank 0: blocked in barrier on comm w (members: 0 1)"),
            std::string::npos);
  EXPECT_NE(report.find("rank 1: blocked in recv"), std::string::npos);
}

TEST(Check, DeadlockWaitingOnFinishedRankIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kDeadlock, [&] {
        rt.run(2, [&](Comm& comm) {
          if (comm.rank() == 1) (void)comm.recv<int>(0, /*tag=*/1);
        });
      });
  EXPECT_NE(report.find("rank 0: finished"), std::string::npos);
  EXPECT_NE(report.find("rank 1: blocked in recv"), std::string::npos);
}

TEST(Check, DeadlockReportIsByteIdenticalAcrossRuns) {
  const auto run_once = [] {
    Checker checker;
    Runtime rt;
    rt.set_check_hook(&checker);
    return expect_check_error(CheckError::Kind::kDeadlock, [&] {
      rt.run(3, [&](Comm& comm) {
        (void)comm.recv<int>((comm.rank() + 1) % 3, /*tag=*/3);
      });
    });
  };
  const std::string first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

// -------------------------------------------------------------- collectives

TEST(Check, CollectiveKindMismatchIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kCollectiveMismatch, [&] {
        rt.run(2, [&](Comm& comm) {
          if (comm.rank() == 0) {
            comm.barrier();
          } else {
            (void)comm.allreduce(1.0, mpsim::ReduceOp::kSum);
          }
        });
      });
  EXPECT_NE(report.find("collective mismatch on comm w"), std::string::npos);
  EXPECT_NE(report.find("rank 0: barrier"), std::string::npos);
  EXPECT_NE(report.find("rank 1: allreduce(op=sum, elem=8, bytes=8)"),
            std::string::npos);
}

TEST(Check, BroadcastRootMismatchIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kCollectiveMismatch, [&] {
        rt.run(2, [&](Comm& comm) {
          std::vector<int> data{comm.rank()};
          comm.broadcast(data, /*root=*/comm.rank());  // ranks disagree
        });
      });
  EXPECT_NE(report.find("rank 0: broadcast(root=0, elem=4)"),
            std::string::npos);
  EXPECT_NE(report.find("rank 1: broadcast(root=1, elem=4)"),
            std::string::npos);
}

TEST(Check, AllreduceElementMismatchIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kCollectiveMismatch, [&] {
        rt.run(2, [&](Comm& comm) {
          if (comm.rank() == 0) {
            (void)comm.allreduce(1.0, mpsim::ReduceOp::kSum);  // 8 bytes
          } else {
            (void)comm.allreduce(1, mpsim::ReduceOp::kSum);  // 4 bytes
          }
        });
      });
  EXPECT_NE(report.find("elem=8"), std::string::npos);
  EXPECT_NE(report.find("elem=4"), std::string::npos);
}

TEST(Check, AllreduceOpMismatchIsDiagnosed) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kCollectiveMismatch, [&] {
        rt.run(2, [&](Comm& comm) {
          const auto op = comm.rank() == 0 ? mpsim::ReduceOp::kSum
                                           : mpsim::ReduceOp::kMax;
          (void)comm.allreduce(1.0, op);
        });
      });
  EXPECT_NE(report.find("op=sum"), std::string::npos);
  EXPECT_NE(report.find("op=max"), std::string::npos);
}

TEST(Check, MatchingCollectivesPass) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.run(4, [&](Comm& comm) {
    comm.barrier();
    EXPECT_EQ(comm.allreduce(1, mpsim::ReduceOp::kSum), 4);
    std::vector<double> data{3.5};
    comm.broadcast(data, /*root=*/2);
    (void)comm.allgatherv(std::vector<int>(comm.rank(), comm.rank()));
  });
}

// ------------------------------------------------------- fault interaction

TEST(Check, FaultInjectedDuplicateIsNotARace) {
  // Every message is duplicated in flight; reliable-mode dedup consumes
  // the stale copies. Neither the duplicates nor the two same-stream
  // sends may be reported as a race on the wildcard receives.
  fault::FaultPlan plan;
  plan.rules.push_back({.duplicate = 1.0});
  fault::PlanInjector injector(plan, /*seed=*/11);
  Checker checker;
  Runtime rt;
  rt.set_fault_injector(&injector);
  rt.set_reliable({.enabled = true});
  rt.set_check_hook(&checker);
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, /*tag=*/3, std::vector<int>{1});
      comm.send(0, /*tag=*/3, std::vector<int>{2});
    } else {
      EXPECT_EQ(comm.recv<int>(kAnySource, kAnyTag), std::vector<int>{1});
      EXPECT_EQ(comm.recv<int>(kAnySource, kAnyTag), std::vector<int>{2});
    }
  });
  EXPECT_GE(injector.stats().duplicates, 1u);
}

TEST(Check, ConsumedTombstoneIsNotALeak) {
  // A dropped message still travels as a tombstone; once the receiver
  // observes the loss (FaultError), the send counts as accounted for.
  fault::FaultPlan plan;
  plan.rules.push_back({.drop = 1.0, .max_events = 1});
  fault::PlanInjector injector(plan, /*seed=*/7);
  Checker checker;
  Runtime rt;
  rt.set_fault_injector(&injector);
  rt.set_check_hook(&checker);
  rt.run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/2, std::vector<int>{5});
    } else {
      EXPECT_THROW((void)comm.recv<int>(0, /*tag=*/2), mpsim::FaultError);
    }
  });
}

// -------------------------------------------------------------- leak audit

TEST(Check, NeverReceivedSendIsALeak) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  const std::string report =
      expect_check_error(CheckError::Kind::kLeak, [&] {
        rt.run(2, [&](Comm& comm) {
          if (comm.rank() == 0)
            comm.send(1, /*tag=*/4, std::vector<int>{1});
        });
      });
  EXPECT_NE(report.find("never-received sends"), std::string::npos);
  EXPECT_NE(report.find("send w 0->1 tag 4 seq 0 (4 bytes)"),
            std::string::npos);
}

TEST(Check, NeverFreedSubCommunicatorIsALeak) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  std::optional<Comm> kept;  // outlives the run: a leaked handle
  const std::string report =
      expect_check_error(CheckError::Kind::kLeak, [&] {
        rt.run(2, [&](Comm& comm) {
          Comm sub = comm.split(/*color=*/0, /*key=*/comm.rank());
          sub.barrier();
          if (comm.rank() == 0) kept = sub;
        });
      });
  EXPECT_NE(report.find("never-freed sub-communicators"), std::string::npos);
  EXPECT_NE(report.find("w/1.0"), std::string::npos);
}

TEST(Check, SubCommunicatorsFreedWithTheirHandlesPass) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.run(4, [&](Comm& comm) {
    Comm row = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(row.size(), 2);
    EXPECT_EQ(row.allreduce(1, mpsim::ReduceOp::kSum), 2);
    if (row.rank() == 0) row.send(1, /*tag=*/1, std::vector<int>{7});
    if (row.rank() == 1) {
      EXPECT_EQ(row.recv<int>(0, 1), std::vector<int>{7});
    }
  });
}

// ------------------------------------------------------------ housekeeping

TEST(Check, CleanRunPassesAndCheckerIsReusable) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  for (int round = 0; round < 2; ++round) {
    rt.run(3, [&](Comm& comm) {
      const int next = (comm.rank() + 1) % 3;
      const int prev = (comm.rank() + 2) % 3;
      comm.send(next, /*tag=*/0, std::vector<int>{comm.rank()});
      EXPECT_EQ(comm.recv<int>(prev, 0), std::vector<int>{prev});
      comm.barrier();
    });
  }
}

TEST(Check, CommKeysAreDeterministic) {
  Checker checker;
  Runtime rt;
  rt.set_check_hook(&checker);
  rt.run(4, [&](Comm& comm) {
    EXPECT_EQ(comm.key(), "w");
    Comm row = comm.split(comm.rank() / 2, comm.rank());
    EXPECT_EQ(row.key(), "w/1." + std::to_string(comm.rank() / 2));
    Comm col = row.split(0, row.rank());
    EXPECT_EQ(col.key(), row.key() + "/1.0");
  });
}

}  // namespace
}  // namespace stnb::check
