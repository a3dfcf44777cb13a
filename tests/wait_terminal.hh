/**
 * @file
 * Block until a campaign-daemon batch is terminal, by polling its
 * status as a client would.
 */

#ifndef UVMASYNC_TESTS_WAIT_TERMINAL_HH
#define UVMASYNC_TESTS_WAIT_TERMINAL_HH

#include <chrono>
#include <string>
#include <thread>

#include "serve/daemon.hh"

namespace uvmasync
{

/** Poll @p handle until terminal; false on an unknown handle. */
inline bool
waitTerminal(const ServeDaemon &daemon, BatchHandle handle,
             BatchState &result)
{
    for (;;) {
        BatchStatus status;
        std::string error;
        if (!daemon.status(handle, status, error))
            return false;
        if (batchStateTerminal(status.state)) {
            result = status.state;
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

} // namespace uvmasync

#endif // UVMASYNC_TESTS_WAIT_TERMINAL_HH
