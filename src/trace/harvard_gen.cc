#include "trace/harvard_gen.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace d2::trace {

namespace {
constexpr SimTime kWorkdayStart = hours(9);
constexpr SimTime kWorkdayEnd = hours(18);
}  // namespace

struct HarvardGenerator::UserState {
  int user = 0;
  std::string home;
  std::vector<std::string> dirs;        // dir paths, dirs[0] == home
  std::vector<int> dir_depth;           // path depth of each dir
  std::vector<GenFile> files;
  std::vector<std::vector<int>> dir_files;  // per-dir indices into files
  Bytes resident_bytes = 0;
  int next_file_id = 0;
};

std::string HarvardGenerator::user_home(int user) {
  return "home/u" + std::to_string(user);
}

std::string_view HarvardGenerator::make_path(std::string_view dir,
                                             std::string_view stem, int id,
                                             std::string_view suffix) {
  scratch_.clear();
  scratch_.append(dir);
  scratch_.append(stem);
  scratch_.append(std::to_string(id));
  scratch_.append(suffix);
  return arena_.intern(scratch_);
}

HarvardGenerator::HarvardGenerator(const HarvardParams& params)
    : params_(params) {
  D2_REQUIRE(params.users > 0);
  D2_REQUIRE(params.days > 0);
  D2_REQUIRE(params.target_active_bytes > 0);
  Rng rng(params.seed);

  build_shared_volume(rng);

  // User u's tree draws from the master's u-th fork and its activity from
  // the master's (N + u)-th, as if every tree were built before any
  // activity. The activity forks come from a copy of the master advanced
  // past the N tree forks, so each user is built and retired in turn and
  // only one UserState is live at a time.
  Rng activity_rng = rng;
  for (int u = 0; u < params.users; ++u) activity_rng.fork();
  for (int u = 0; u < params.users; ++u) {
    UserState st;
    st.user = u;
    st.home = user_home(u);
    Rng tree_rng = rng.fork();
    build_user_tree(st, tree_rng);
    Rng user_rng = activity_rng.fork();
    generate_user_activity(st, user_rng);
  }

  std::stable_sort(records_.begin(), records_.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.time < b.time;
                   });
}

Bytes HarvardGenerator::sample_file_size(Rng& rng) const {
  const double sigma = params_.file_size_sigma;
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) == mean_file_size.
  const double mu =
      std::log(static_cast<double>(params_.mean_file_size)) - sigma * sigma / 2.0;
  const double v = rng.lognormal(mu, sigma);
  return std::clamp<Bytes>(static_cast<Bytes>(v), 128, params_.max_file_size);
}

void HarvardGenerator::build_shared_volume(Rng& rng) {
  const Bytes budget = static_cast<Bytes>(
      params_.shared_fraction * static_cast<double>(params_.target_active_bytes));
  Bytes used = 0;
  int dir_id = 0;
  while (used < budget) {
    const std::string dir = "shared/pkg" + std::to_string(dir_id++);
    const int nfiles = static_cast<int>(1 + rng.next_below(24));
    for (int f = 0; f < nfiles && used < budget; ++f) {
      GenFile gf;
      gf.path = make_path(dir, "/lib", f, ".so");
      gf.size = sample_file_size(rng);
      gf.dir_index = -1;
      gf.shared = true;
      used += gf.size;
      initial_files_.push_back(FileSpec{gf.path, gf.size});
      shared_files_.push_back(std::move(gf));
    }
  }
}

void HarvardGenerator::build_user_tree(UserState& u, Rng& rng) {
  const Bytes budget = static_cast<Bytes>(
      (1.0 - params_.shared_fraction) *
      static_cast<double>(params_.target_active_bytes) / params_.users);

  // Random recursive directory tree under the home (depth stays modest,
  // matching the paper's observation that < 1% of paths exceed 12 levels).
  u.dirs.push_back(u.home);
  u.dir_depth.push_back(2);  // "home" + "uN"
  const int ndirs = static_cast<int>(12 + rng.next_below(48));
  for (int d = 0; d < ndirs; ++d) {
    // Bias towards shallow parents to get realistic fanout.
    std::size_t parent = rng.next_below(u.dirs.size());
    if (u.dir_depth[parent] >= 9) parent = 0;
    u.dirs.push_back(u.dirs[parent] + "/d" + std::to_string(d));
    u.dir_depth.push_back(u.dir_depth[parent] + 1);
  }

  // Mail inbox: one growing file, ~10% of the budget (email workload).
  {
    GenFile mbox;
    mbox.path = arena_.intern(u.home + "/mail/inbox.mbox");
    mbox.size = std::max<Bytes>(kB(64), budget / 10);
    mbox.dir_index = 0;
    u.resident_bytes += mbox.size;
    initial_files_.push_back(FileSpec{mbox.path, mbox.size});
    u.dir_files.resize(u.dirs.size());
    u.dir_files[0].push_back(static_cast<int>(u.files.size()));
    u.files.push_back(std::move(mbox));
  }

  // Fill directories with files until the budget is consumed. A Zipf
  // choice over directories makes some dirs dense (project dirs) and
  // others sparse.
  ZipfDistribution dir_zipf(u.dirs.size(), 0.9);
  while (u.resident_bytes < budget) {
    const std::size_t d = dir_zipf.sample(rng);
    GenFile gf;
    gf.path = make_path(u.dirs[d], "/f", u.next_file_id++);
    gf.size = sample_file_size(rng);
    gf.dir_index = static_cast<int>(d);
    u.resident_bytes += gf.size;
    initial_files_.push_back(FileSpec{gf.path, gf.size});
    u.dir_files[d].push_back(static_cast<int>(u.files.size()));
    u.files.push_back(std::move(gf));
  }
}

void HarvardGenerator::generate_user_activity(UserState& u, Rng& rng) {
  ZipfDistribution dir_zipf(u.dirs.size(), 0.9);

  auto pick_alive_in_dir = [&](std::size_t d) -> int {
    const auto& idxs = u.dir_files[d];
    if (idxs.empty()) return -1;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int i = idxs[rng.next_below(idxs.size())];
      if (u.files[static_cast<std::size_t>(i)].alive) return i;
    }
    return -1;
  };
  auto pick_alive_any = [&]() -> int {
    if (u.files.empty()) return -1;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const int i = static_cast<int>(rng.next_below(u.files.size()));
      if (u.files[static_cast<std::size_t>(i)].alive) return i;
    }
    return -1;
  };

  const double mean_read_len = 48.0 * 1024;
  const double read_mu = std::log(mean_read_len) - 0.5;  // sigma = 1

  for (int day = 0; day < params_.days; ++day) {
    const SimTime day_start = days(day);
    // Per-day churn budgets (Table 3 calibration).
    Bytes create_budget = static_cast<Bytes>(params_.daily_create_fraction *
                                             static_cast<double>(u.resident_bytes));
    Bytes overwrite_budget =
        static_cast<Bytes>(params_.daily_overwrite_fraction *
                           static_cast<double>(u.resident_bytes));
    Bytes remove_budget = static_cast<Bytes>(params_.daily_remove_fraction *
                                             static_cast<double>(u.resident_bytes));

    const int sessions = 2 + static_cast<int>(rng.next_below(7));
    const double ops_per_session =
        params_.accesses_per_user_day / std::max(1, sessions);

    std::vector<int> created_today;

    for (int s = 0; s < sessions; ++s) {
      SimTime t = day_start + kWorkdayStart +
                  static_cast<SimTime>(rng.next_double() *
                                       static_cast<double>(kWorkdayEnd - kWorkdayStart));
      const SimTime session_end =
          t + static_cast<SimTime>(rng.exponential(to_seconds(minutes(20))) * 1e6);

      // Session working set: 1-3 directories (name-space locality).
      std::vector<std::size_t> working;
      const int nwork = 1 + static_cast<int>(rng.next_below(3));
      for (int w = 0; w < nwork; ++w) working.push_back(dir_zipf.sample(rng));

      const auto target_ops = static_cast<int>(
          ops_per_session * (0.5 + rng.next_double()));
      for (int op = 0; op < target_ops && t < session_end; ++op) {
        const double roll = rng.next_double();

        if (roll < params_.rename_fraction) {
          const int fi = pick_alive_any();
          if (fi >= 0) {
            GenFile& gf = u.files[static_cast<std::size_t>(fi)];
            const std::size_t d = working[rng.next_below(working.size())];
            const std::string_view to =
                make_path(u.dirs[d], "/mv", u.next_file_id++);
            records_.push_back(TraceRecord{t, u.user, TraceRecord::Op::kRename,
                                           gf.path, to, 0, 0});
            // Track the move in the mirror namespace (the old dir's index
            // list keeps a stale entry; it still resolves to this file).
            gf.path = to;
            gf.dir_index = static_cast<int>(d);
            u.dir_files[d].push_back(fi);
          }
        } else if (roll < 0.04 && create_budget > 0) {
          // Create a new file in a working directory.
          const std::size_t d = working[rng.next_below(working.size())];
          GenFile gf;
          gf.path = make_path(u.dirs[d], "/n", u.next_file_id++);
          gf.size = std::min(sample_file_size(rng), create_budget);
          gf.dir_index = static_cast<int>(d);
          create_budget -= gf.size;
          u.resident_bytes += gf.size;
          records_.push_back(TraceRecord{t, u.user, TraceRecord::Op::kCreate,
                                         gf.path, "", 0, gf.size});
          const int idx = static_cast<int>(u.files.size());
          u.dir_files[d].push_back(idx);
          created_today.push_back(idx);
          u.files.push_back(std::move(gf));
        } else if (roll < 0.065 && remove_budget > 0) {
          // Remove: prefer files created today (temporaries), else any.
          int fi = -1;
          if (!created_today.empty() && rng.bernoulli(0.5)) {
            fi = created_today[rng.next_below(created_today.size())];
            if (!u.files[static_cast<std::size_t>(fi)].alive) fi = -1;
          }
          if (fi < 0) fi = pick_alive_any();
          if (fi >= 0 && !u.files[static_cast<std::size_t>(fi)].path.ends_with(".mbox")) {
            GenFile& gf = u.files[static_cast<std::size_t>(fi)];
            gf.alive = false;
            remove_budget -= std::min(remove_budget, gf.size);
            u.resident_bytes -= gf.size;
            records_.push_back(TraceRecord{t, u.user, TraceRecord::Op::kRemove,
                                           gf.path, "", 0, 0});
          }
        } else if (roll < 0.20 && overwrite_budget > 0) {
          // Overwrite part of a working-set file, or append to the mbox.
          if (rng.bernoulli(0.25)) {
            GenFile& mbox = u.files[0];  // the mailbox: append
            const Bytes len = std::min<Bytes>(overwrite_budget,
                                              512 + static_cast<Bytes>(rng.next_below(kB(32))));
            records_.push_back(TraceRecord{t, u.user, TraceRecord::Op::kWrite,
                                           mbox.path, "", mbox.size, len});
            mbox.size += len;
            u.resident_bytes += len;
            overwrite_budget -= len;
          } else {
            int fi = pick_alive_in_dir(working[rng.next_below(working.size())]);
            if (fi < 0) fi = pick_alive_any();
            if (fi >= 0) {
              GenFile& gf = u.files[static_cast<std::size_t>(fi)];
              const Bytes len = std::min(
                  {gf.size, overwrite_budget,
                   static_cast<Bytes>(rng.lognormal(read_mu, 1.0))});
              if (len > 0) {
                const Bytes max_off = gf.size - len;
                const Bytes off = max_off > 0
                                      ? static_cast<Bytes>(rng.next_below(
                                            static_cast<std::uint64_t>(max_off)))
                                      : 0;
                records_.push_back(TraceRecord{t, u.user, TraceRecord::Op::kWrite,
                                               gf.path, "", off, len});
                overwrite_budget -= len;
              }
            }
          }
        } else {
          // Read: working dir (80%), anywhere in home (15%), shared (5%).
          const double where = rng.next_double();
          const GenFile* gf = nullptr;
          int fi = -1;
          if (where < 0.05 && !shared_files_.empty()) {
            gf = &shared_files_[rng.next_below(shared_files_.size())];
          } else if (where < 0.20) {
            fi = pick_alive_any();
          } else {
            // Sticky working set: mostly the session's primary directory.
            const std::size_t wd =
                working[rng.bernoulli(0.6) ? 0 : rng.next_below(working.size())];
            fi = pick_alive_in_dir(wd);
            if (fi < 0) fi = pick_alive_any();
          }
          if (fi >= 0) gf = &u.files[static_cast<std::size_t>(fi)];
          if (gf != nullptr && gf->size > 0) {
            const Bytes len = std::min<Bytes>(
                gf->size,
                std::max<Bytes>(512, static_cast<Bytes>(rng.lognormal(read_mu, 1.0))));
            const Bytes max_off = gf->size - len;
            // Mostly sequential-from-start reads; sometimes an interior seek.
            const Bytes off =
                (max_off > 0 && rng.bernoulli(0.3))
                    ? static_cast<Bytes>(rng.next_below(
                          static_cast<std::uint64_t>(max_off)))
                    : 0;
            records_.push_back(TraceRecord{t, u.user, TraceRecord::Op::kRead,
                                           gf->path, "", off, len});
          }
        }

        // Burst structure: mostly sub-second gaps, with think times that
        // delimit tasks (§8) and access groups (§9).
        const double g = rng.next_double();
        SimTime gap;
        if (g < 0.75) {
          gap = static_cast<SimTime>(rng.exponential(0.3) * 1e6);
        } else if (g < 0.95) {
          gap = static_cast<SimTime>(rng.exponential(45.0) * 1e6);
        } else {
          gap = static_cast<SimTime>(rng.exponential(300.0) * 1e6);
        }
        t += std::max<SimTime>(gap, 1000);
      }
    }
  }
}

}  // namespace d2::trace
