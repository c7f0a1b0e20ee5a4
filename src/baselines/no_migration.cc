#include "baselines/no_migration.h"

#include <memory>

#include "common/log.h"
#include "mem/manager_factory.h"

namespace mempod {

void
NoMigrationManager::handleDemand(Demand d)
{
    mem_.access(Request::demand(d.homeAddr, std::move(d)));
}

void
NoMigrationManager::validateInvariants(bool paranoid) const
{
    (void)paranoid;
    if (mstats_.migrations != 0 || mstats_.bytesMoved != 0)
        MEMPOD_PANIC(
            "invariant violated [static_placement]: NoMigration "
            "reports %llu migrations / %llu bytes moved",
            static_cast<unsigned long long>(mstats_.migrations),
            static_cast<unsigned long long>(mstats_.bytesMoved));
}

MEMPOD_REGISTER_MANAGER(
    Mechanism::kNoMigration,
    [](const SimConfig &, EventQueue &, MemorySystem &mem) {
        return std::make_unique<NoMigrationManager>(mem);
    })

} // namespace mempod
