#include "machine/machinetext.hh"

#include <sstream>

#include "support/str.hh"

namespace cams
{

namespace
{

std::string
lineError(int line_no, const std::string &message)
{
    return "line " + std::to_string(line_no) + ": " + message;
}

} // namespace

bool
parseMachine(const std::string &text, MachineDesc &out,
             std::string &error)
{
    MachineDesc machine;
    machine.interconnect = InterconnectKind::Bus;
    std::istringstream input(text);
    std::string line;
    int line_no = 0;

    while (std::getline(input, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const auto tokens = splitWhitespace(line);
        if (tokens.empty())
            continue;

        if (tokens[0] == "machine") {
            if (tokens.size() != 2) {
                error = lineError(line_no, "expected: machine <name>");
                return false;
            }
            machine.name = tokens[1];
        } else if (tokens[0] == "interconnect") {
            if (tokens.size() != 2 ||
                (tokens[1] != "bus" && tokens[1] != "p2p")) {
                error = lineError(line_no,
                                  "expected: interconnect bus|p2p");
                return false;
            }
            machine.interconnect = tokens[1] == "bus"
                                       ? InterconnectKind::Bus
                                       : InterconnectKind::PointToPoint;
        } else if (tokens[0] == "buses") {
            int buses = 0;
            if (tokens.size() != 2 || !parseInt(tokens[1], buses) ||
                buses < 0) {
                error = lineError(line_no, "expected: buses <n>");
                return false;
            }
            machine.numBuses = buses;
        } else if (tokens[0] == "link") {
            int a = 0;
            int b = 0;
            if (tokens.size() != 3 || !parseInt(tokens[1], a) ||
                !parseInt(tokens[2], b)) {
                error = lineError(line_no, "expected: link <a> <b>");
                return false;
            }
            machine.links.push_back({a, b});
        } else if (tokens[0] == "cluster") {
            ClusterDesc cluster;
            size_t next = 0;
            if (tokens.size() >= 3 && tokens[1] == "gp") {
                int units = 0;
                if (!parseInt(tokens[2], units) || units <= 0) {
                    error = lineError(line_no, "bad gp unit count");
                    return false;
                }
                cluster.gpUnits = units;
                next = 3;
            } else if (tokens.size() >= 5 && tokens[1] == "fs") {
                int mem = 0;
                int ints = 0;
                int fps = 0;
                if (!parseInt(tokens[2], mem) ||
                    !parseInt(tokens[3], ints) ||
                    !parseInt(tokens[4], fps) || mem < 0 || ints < 0 ||
                    fps < 0) {
                    error = lineError(line_no, "bad fs unit counts");
                    return false;
                }
                cluster.fsUnits[static_cast<int>(FuClass::Memory)] = mem;
                cluster.fsUnits[static_cast<int>(FuClass::Integer)] =
                    ints;
                cluster.fsUnits[static_cast<int>(FuClass::Float)] = fps;
                next = 5;
            } else {
                error = lineError(
                    line_no,
                    "expected: cluster gp <n> ... | cluster fs "
                    "<m> <i> <f> ...");
                return false;
            }
            if (tokens.size() != next + 3 || tokens[next] != "ports" ||
                !parseInt(tokens[next + 1], cluster.readPorts) ||
                !parseInt(tokens[next + 2], cluster.writePorts) ||
                cluster.readPorts < 0 || cluster.writePorts < 0) {
                error = lineError(line_no, "expected: ... ports <r> <w>");
                return false;
            }
            machine.clusters.push_back(cluster);
        } else {
            error = lineError(line_no,
                              "unknown directive '" + tokens[0] + "'");
            return false;
        }
    }

    if (machine.clusters.empty()) {
        error = "no clusters declared";
        return false;
    }
    for (const LinkDesc &link : machine.links) {
        if (link.a < 0 || link.a >= machine.numClusters() || link.b < 0 ||
            link.b >= machine.numClusters() || link.a == link.b) {
            error = "link references an undeclared cluster";
            return false;
        }
    }
    if (machine.interconnect == InterconnectKind::Bus &&
        !machine.links.empty()) {
        error = "links on a bus machine";
        return false;
    }
    if (machine.interconnect == InterconnectKind::PointToPoint &&
        machine.numBuses > 0) {
        error = "buses on a p2p machine";
        return false;
    }
    if (machine.numClusters() > 1) {
        if (machine.interconnect == InterconnectKind::Bus &&
            machine.numBuses == 0) {
            error = "multi-cluster bus machine needs 'buses <n>'";
            return false;
        }
        if (machine.interconnect == InterconnectKind::PointToPoint &&
            machine.links.empty()) {
            error = "p2p machine needs 'link' directives";
            return false;
        }
    }

    error = machine.validationError();
    if (!error.empty())
        return false;
    out = std::move(machine);
    error.clear();
    return true;
}

std::string
serializeMachine(const MachineDesc &machine)
{
    std::ostringstream os;
    if (!machine.name.empty())
        os << "machine " << machine.name << "\n";
    os << "interconnect "
       << (machine.interconnect == InterconnectKind::Bus ? "bus" : "p2p")
       << "\n";
    if (machine.interconnect == InterconnectKind::Bus &&
        machine.numBuses > 0) {
        os << "buses " << machine.numBuses << "\n";
    }
    for (const ClusterDesc &cluster : machine.clusters) {
        if (cluster.usesGpPool()) {
            os << "cluster gp " << cluster.gpUnits;
        } else {
            os << "cluster fs "
               << cluster.fsUnits[static_cast<int>(FuClass::Memory)]
               << " "
               << cluster.fsUnits[static_cast<int>(FuClass::Integer)]
               << " "
               << cluster.fsUnits[static_cast<int>(FuClass::Float)];
        }
        os << " ports " << cluster.readPorts << " " << cluster.writePorts
           << "\n";
    }
    for (const LinkDesc &link : machine.links)
        os << "link " << link.a << " " << link.b << "\n";
    return os.str();
}

} // namespace cams
