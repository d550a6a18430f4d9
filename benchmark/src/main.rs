fn main() {
    std::process::exit(cosmos_benchmark::cli::main());
}
