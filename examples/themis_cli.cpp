/**
 * @file
 * Command-line collective simulator: the whole library behind one
 * flag-driven binary, for what-if studies on custom platforms.
 *
 * The flags and the modes that read them live in one table in
 * src/app/flags.cpp. Any command-line error prints the usage text
 * generated from it (README.md has the same mode x flag matrix).
 * Examples:
 *
 *   themis_cli --topo "Ring:4:1000x2:20,SW:8:400:1700" --size 2.5e8
 *   themis_cli --grid "2D-SW_SW;3D-SW_SW_SW_homo" --sweep 16,64
 *   themis_cli --iterations 100 --model GNMT --topo 2D-SW_SW
 *   themis_cli --jobs "train:DLRM;infer:3.2e7,period=2e5" --tier-ratio 8
 */

#include "app/cli.hpp"

int
main(int argc, char** argv)
{
    return themis::app::runCli(argc, argv);
}
