#include "baselines/no_migration.h"

#include "common/log.h"

namespace mempod {

void
NoMigrationManager::handleDemand(Demand d)
{
    mem_.access(Request::demand(d.homeAddr, d));
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

} // namespace mempod
