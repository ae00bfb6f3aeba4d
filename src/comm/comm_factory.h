#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/address_book.h"
#include "comm/comm_base.h"
#include "md/neighbor.h"
#include "minimpi/world.h"
#include "threadpool/spin_pool.h"
#include "tofu/network.h"

namespace lmp::comm {

/// Everything a variant builder may need. The simulation fills this once
/// per rank; each builder picks the substrate it speaks (MPI world vs
/// uTofu network + address book) and ignores the rest.
struct CommBuildInputs {
  CommContext ctx;
  minimpi::World* world = nullptr;
  tofu::Network* net = nullptr;
  AddressBook* book = nullptr;
  /// Ablation switches (forwarded to the p2p engine).
  bool use_border_bins = true;
  bool balanced_assignment = true;
};

/// A built variant plus whatever it needs kept alive. `pool` is non-null
/// only for fine-grained variants that drive one TNI per pool thread;
/// the pool must outlive every comm *call* (the comm's destructor does
/// not use it, so member order is not load-bearing).
struct CommInstance {
  std::unique_ptr<Comm> comm;
  std::unique_ptr<pool::SpinThreadPool> pool;
};

/// One registered comm variant: the paper's name for it, a one-line
/// summary for catalogs, the half-list rule its ghost pattern requires,
/// and the builder.
struct CommVariantInfo {
  std::string name;
  std::string summary;
  /// Brick-style all-26-sides ghosts need the LAMMPS coordinate
  /// tie-break; half-shell p2p ghosts keep every local-ghost pair.
  md::HalfRule half_rule = md::HalfRule::kAllGhosts;
  std::function<CommInstance(const CommBuildInputs&)> build;
};

/// Name -> builder registry for the six paper variants (and any future
/// ones). Drivers self-register from static initializers in their own
/// translation unit, so adding a variant is a one-file change; the
/// simulation, input scripts, benches, and CLIs all resolve variants by
/// string through this table.
class CommFactory {
 public:
  static CommFactory& instance();

  /// Registers (or replaces) a variant under info.name.
  void register_variant(CommVariantInfo info);

  bool known(const std::string& name) const;

  /// Info for `name`; throws std::invalid_argument listing the catalog
  /// for unknown names.
  const CommVariantInfo& at(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// "name1, name2, ..." — for error messages and usage strings.
  std::string catalog() const;

 private:
  CommFactory() = default;
  std::map<std::string, CommVariantInfo> variants_;
};

/// Registers a variant at static-initialization time:
///
///   const CommRegistrar reg{{ "mpi_p2p", "naive p2p over MPI",
///                             md::HalfRule::kAllGhosts, builder }};
///
/// Lives at the bottom of the driver's .cpp, next to the code it
/// constructs. lmp_comm is an OBJECT library so these initializers are
/// never dead-stripped by the archive linker.
struct CommRegistrar {
  explicit CommRegistrar(CommVariantInfo info) {
    CommFactory::instance().register_variant(std::move(info));
  }
};

}  // namespace lmp::comm
