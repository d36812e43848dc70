//! Regenerates every table and figure of the paper in one run, echoing to
//! stdout and saving each report under `target/experiments/`. With
//! `--only <name>` it regenerates one, named as in
//! `swift_bench::all_experiments` (e.g. `fig08c_bert`); an unknown name
//! lists the known ones and exits with status 2.

fn main() {
    let mut experiments = swift_bench::all_experiments();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [flag, name] if flag == "--only" => {
            let known: Vec<&str> = experiments.iter().map(|&(n, _)| n).collect();
            if !known.contains(&name.as_str()) {
                eprintln!("unknown experiment `{name}`; known: {}", known.join(", "));
                std::process::exit(2);
            }
            experiments.retain(|&(n, _)| n == name);
        }
        _ => {
            eprintln!("usage: all_experiments [--only <name>]");
            std::process::exit(2);
        }
    }
    let out_dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(out_dir);
    for (name, f) in experiments {
        let report = f();
        println!("================ {name} ================");
        print!("{report}");
        println!();
        if std::fs::write(out_dir.join(format!("{name}.txt")), &report).is_ok() {
            eprintln!("saved target/experiments/{name}.txt");
        }
    }
}
