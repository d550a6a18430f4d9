//! The paper's numbers, as data: `cosmos-sim experiments` (quick scale)
//! must pass every claim it checks *and* print exactly
//! `golden/experiments_quick.txt`. CI holds `--scale paper` to
//! `golden/experiments_paper.txt` the same way. A change that moves an
//! experiment on purpose regenerates both files from the command and
//! says why; EXPERIMENTS.md quotes the paper file.

#[test]
fn quick_report_matches_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cosmos-sim"))
        .arg("experiments")
        .output()
        .expect("cosmos-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}:\n{stderr}", out.status);
    let got = String::from_utf8(out.stdout).expect("the report is UTF-8");
    let want = include_str!("golden/experiments_quick.txt");
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    if let Some(i) = first_diff {
        let (g, w) = (got.lines().nth(i), want.lines().nth(i));
        panic!("line {}: printed {g:?}, golden {w:?}", i + 1);
    }
    assert_eq!(got, want, "same lines, different length or line ends");
}
