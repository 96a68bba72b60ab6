#include "graph/textio.hh"

#include <map>
#include <sstream>

#include "support/str.hh"

namespace cams
{

namespace
{

bool
parseKeyValue(const std::string &token, const std::string &key, int &out)
{
    const std::string prefix = key + "=";
    if (!startsWith(token, prefix))
        return false;
    return parseInt(token.substr(prefix.size()), out);
}

std::string
lineError(int line_no, const std::string &message)
{
    return "line " + std::to_string(line_no) + ": " + message;
}

} // namespace

bool
parseDfg(const std::string &text, Dfg &out, std::string &error)
{
    Dfg graph;
    std::map<std::string, NodeId> names;
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

        if (tokens[0] == "loop") {
            if (tokens.size() != 2) {
                error = lineError(line_no, "expected: loop <name>");
                return false;
            }
            graph.setName(tokens[1]);
        } else if (tokens[0] == "node") {
            if (tokens.size() < 3) {
                error = lineError(line_no,
                                  "expected: node <name> <opcode> ...");
                return false;
            }
            if (names.count(tokens[1])) {
                error = lineError(line_no,
                                  "duplicate node '" + tokens[1] + "'");
                return false;
            }
            Opcode op;
            if (!opcodeFromName(tokens[2], op)) {
                error = lineError(line_no,
                                  "unknown opcode '" + tokens[2] + "'");
                return false;
            }
            int latency = -1;
            for (size_t i = 3; i < tokens.size(); ++i) {
                if (!parseKeyValue(tokens[i], "lat", latency)) {
                    error = lineError(line_no,
                                      "bad attribute '" + tokens[i] + "'");
                    return false;
                }
            }
            names[tokens[1]] = graph.addNode(op, latency, tokens[1]);
        } else if (tokens[0] == "edge") {
            if (tokens.size() < 3) {
                error = lineError(line_no,
                                  "expected: edge <src> <dst> ...");
                return false;
            }
            auto src = names.find(tokens[1]);
            auto dst = names.find(tokens[2]);
            if (src == names.end() || dst == names.end()) {
                error = lineError(line_no, "edge references unknown node");
                return false;
            }
            int latency = -1;
            int distance = 0;
            for (size_t i = 3; i < tokens.size(); ++i) {
                if (parseKeyValue(tokens[i], "lat", latency))
                    continue;
                if (parseKeyValue(tokens[i], "dist", distance))
                    continue;
                error = lineError(line_no,
                                  "bad attribute '" + tokens[i] + "'");
                return false;
            }
            if (distance < 0) {
                error = lineError(line_no, "negative distance");
                return false;
            }
            graph.addEdge(src->second, dst->second, latency, distance);
        } else {
            error = lineError(line_no,
                              "unknown directive '" + tokens[0] + "'");
            return false;
        }
    }

    graph.seal();
    out = std::move(graph);
    error.clear();
    return true;
}

std::string
serializeDfg(const Dfg &graph)
{
    std::ostringstream os;
    if (!graph.name().empty())
        os << "loop " << graph.name() << "\n";
    for (const DfgNode &node : graph.nodes()) {
        os << "node " << node.name << " " << opcodeName(node.op);
        if (node.latency != opcodeLatency(node.op))
            os << " lat=" << node.latency;
        os << "\n";
    }
    for (const DfgEdge &edge : graph.edges()) {
        os << "edge " << graph.node(edge.src).name << " "
           << graph.node(edge.dst).name;
        if (edge.latency != graph.node(edge.src).latency)
            os << " lat=" << edge.latency;
        if (edge.distance != 0)
            os << " dist=" << edge.distance;
        os << "\n";
    }
    return os.str();
}

} // namespace cams
