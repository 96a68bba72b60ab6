/**
 * @file
 * Plain-text machine description format, for the command-line driver
 * and for experiment configs kept under version control.
 *
 * Grammar (one directive per line, '#' starts a comment):
 *
 *   machine <name>
 *   interconnect bus | p2p
 *   buses <n>                          # bus machines
 *   link <clusterA> <clusterB>         # p2p machines, repeatable
 *   cluster gp <units> ports <r> <w>
 *   cluster fs <mem> <int> <fp> ports <r> <w>
 *
 * Clusters are numbered in declaration order. The description is
 * checked (MachineDesc::validationError) after parsing; an impossible
 * machine is a parse error, never a process exit.
 */

#ifndef CAMS_MACHINE_MACHINETEXT_HH
#define CAMS_MACHINE_MACHINETEXT_HH

#include <string>

#include "machine/machine.hh"

namespace cams
{

/**
 * Parses a machine description.
 * @param error filled with a line-tagged message on failure.
 * @return true and fills @p out on success.
 */
bool parseMachine(const std::string &text, MachineDesc &out,
                  std::string &error);

/** Serializes a machine into the text format (round-trippable). */
std::string serializeMachine(const MachineDesc &machine);

} // namespace cams

#endif // CAMS_MACHINE_MACHINETEXT_HH
