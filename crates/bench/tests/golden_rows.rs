//! Golden rows: the E5, E9 and E10 scenarios on small fixed grids, every
//! string column exact and every numeric column by its bits (floats as
//! `to_bits` hex, counts as themselves), at `--threads` 1 and 2. These
//! are the experiments that put an analytic column next to a simulated
//! one; a refactor of how they compute either must leave every row as
//! it is. The E9 grid holds Montage-50 under Weibull k = 2 at pfail
//! 0.01, whose CkptNone runs all diverge (`sim_em` and `rel_err_pct`
//! read `inf`), so the guarded error formula is pinned too.

use ckpt_bench::engine::{self, EngineConfig, NullSink, Scenario};
use ckpt_bench::scenarios::{DistributionsScenario, StrategiesScenario, ValidateScenario};
use ckpt_service::{ModelSpec, PolicySpec};
use pegasus::WorkflowClass;

const THREADS: [usize; 2] = [1, 2];

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Runs `scenario` at each budget in [`THREADS`] and compares its rows,
/// rendered by `line`, against `expected`. On a mismatch the message
/// lists every actual row, ready to paste.
fn check<S: Scenario>(scenario: &S, line: impl Fn(&S::Row) -> String, expected: &[&str]) {
    for threads in THREADS {
        let report = engine::run(
            scenario,
            &EngineConfig::with_threads(threads),
            &mut NullSink,
        )
        .expect("in-memory run");
        let actual: Vec<String> = report.rows.iter().map(&line).collect();
        assert!(
            actual == expected,
            "{} at threads={threads}, actual rows:\n{}",
            scenario.name(),
            actual
                .iter()
                .map(|l| format!("        \"{l}\","))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn validate_rows_keep_their_bits() {
    let scenario = ValidateScenario {
        runs: 30,
        sizes: vec![50],
        base_seed: 42,
    };
    check(
        &scenario,
        |r| {
            format!(
                "{} {} {} {} {} {} {} {} {} {}",
                r.class.name(),
                r.size,
                bits(r.pfail),
                r.strategy,
                r.model,
                bits(r.model_em),
                bits(r.sim_em),
                bits(r.sim_stderr),
                bits(r.rel_err_pct),
                r.diverged
            )
        },
        &[
            "genome 50 3f847ae147ae147b CkptAll Eq2+PathApprox 40868a63b165b019 4086fc9281c01e27 402d47dcefbbe17d 3fff0bc862e0fa63 0",
            "genome 50 3f847ae147ae147b CkptSome Eq2+PathApprox 4086826c47274e43 4086c61b5a6c513a 401e1884ba0eee69 3ff293330a286bbd 0",
            "genome 50 3f847ae147ae147b CkptNone Theorem1 408d9baa800411e0 408b98b67221ba32 4048544523aafc4f 401d2807795b40ea 0",
            "genome 50 3f50624dd2f1a9fc CkptAll Eq2+PathApprox 4086361d7474bd4c 40862dfd986efd21 3d31d3a60caf0ca6 3fc250aa7a87e20a 0",
            "genome 50 3f50624dd2f1a9fc CkptSome Eq2+PathApprox 408626363ef86a2c 40863e037066fa81 4010691fb6436bfa 3fdac0ac46a1e814 0",
            "genome 50 3f50624dd2f1a9fc CkptNone Theorem1 4086d7196da953d2 40868a0065896c81 4024accd91bc8193 3ff561016edbcdf5 0",
            "genome 50 3f1a36e2eb1c432d CkptAll Eq2+PathApprox 40862ecd7cde010d 40862dfd986efd21 3d31d3a60caf0ca6 3f8d4a7d0a50c49c 0",
            "genome 50 3f1a36e2eb1c432d CkptSome Eq2+PathApprox 40861e17fe2a5de9 40861d3130fa73aa 3d17c4dd663ebb88 3f904ec0959cd901 0",
            "genome 50 3f1a36e2eb1c432d CkptNone Theorem1 40862ab3b0eb7ff1 4086178e6513b121 3d17c4dd663ebb88 3fd5aa74d6f63116 0",
            "montage 50 3f847ae147ae147b CkptAll Eq2+PathApprox 408c59da4f29ce4a 408bc3ac872c40bb 403095d699b639af 4000e73df1bb2355 0",
            "montage 50 3f847ae147ae147b CkptSome Eq2+PathApprox 408b2f2458de19ca 408cf7f2d963d55e 40404ad4bcd37513 4018a39f3c2e46f9 0",
            "montage 50 3f847ae147ae147b CkptNone Theorem1 409af379d2de77b1 4090b940ccd57c78 4053e6cee64063ef 404e93e82f246ff6 0",
            "montage 50 3f50624dd2f1a9fc CkptAll Eq2+PathApprox 408a82aa14ce35fa 408a71bbade1b34e 40088a3c0b6e4baa 3fd001ad0fd9a2a1 0",
            "montage 50 3f50624dd2f1a9fc CkptSome Eq2+PathApprox 408934865e77e2bd 40890f376e8a7065 4002da3c07d2463a 3fe29c2437324db6 0",
            "montage 50 3f50624dd2f1a9fc CkptNone Theorem1 408b88ddf4a0cd82 408918c608f651f5 402e8a2d674c6802 40236d7ee9f590d8 0",
            "montage 50 3f1a36e2eb1c432d CkptAll Eq2+PathApprox 408a53c6600060e7 408a4e9235f6979f 0000000000000000 3fb3c7ee58b36945 0",
            "montage 50 3f1a36e2eb1c432d CkptSome Eq2+PathApprox 408901fa57cf2d17 4088fc5d32829e1f 3d17c4dd663ebb88 3fb677d9bbc09dd3 0",
            "montage 50 3f1a36e2eb1c432d CkptNone Theorem1 4088e934ca2ca1a4 40889e9d53592055 3d31d3a60caf0ca6 3ff2efa1402bfcbd 0",
            "ligo 50 3f847ae147ae147b CkptAll Eq2+PathApprox 40a361caa1a4d0ce 40a3618ce9bcb64a 4033eea71fd5ecdd 3f73e726c1bd7a04 0",
            "ligo 50 3f847ae147ae147b CkptSome Eq2+PathApprox 40a3040c34b7bc78 40a322bd3e12b776 403d87cb4fa4a901 3fe40c724cf4cc20 0",
            "ligo 50 3f847ae147ae147b CkptNone Theorem1 40a6b07bd62d474c 40a49a05113b6b11 4058c3091c4696af 4024448eaab5f99c 0",
            "ligo 50 3f50624dd2f1a9fc CkptAll Eq2+PathApprox 40a2fd7dbf27589a 40a2e9a00ab2210e 3d37c4dd663ebb88 3fda42a4498d2ba9 0",
            "ligo 50 3f50624dd2f1a9fc CkptSome Eq2+PathApprox 40a29829b7f2fa7d 40a25d7b987ceaa9 40157098ea821800 3ff3f84d2257d751 0",
            "ligo 50 3f50624dd2f1a9fc CkptNone Theorem1 40a20defa3517677 40a2d766bb2d0d37 405779a691311c6c 4010b51292bca223 0",
            "ligo 50 3f1a36e2eb1c432d CkptAll Eq2+PathApprox 40a2ed249d91193a 40a2e9a00ab2210e 3d37c4dd663ebb88 3fb299c426412a7e 0",
            "ligo 50 3f1a36e2eb1c432d CkptSome Eq2+PathApprox 40a262232fadd88e 40a252c34c07a99d 3d51d3a60caf0ca6 3fd4fa1013832cc1 0",
            "ligo 50 3f1a36e2eb1c432d CkptNone Theorem1 40a197deaa15fe6d 40a18ac203731e64 3d47c4dd663ebb88 3fd2afba77f78a48 0",
        ],
    );
}

#[test]
fn distributions_rows_keep_their_bits() {
    let pfail = f64::NAN;
    let scenario = DistributionsScenario {
        models: vec![
            ModelSpec::Exponential { pfail },
            ModelSpec::Weibull { shape: 2.0, pfail },
            ModelSpec::LogNormal { sigma: 1.0, pfail },
        ],
        sizes: vec![50],
        pfails: vec![0.01],
        runs: 30,
        base_seed: 42,
    };
    check(
        &scenario,
        |r| {
            format!(
                "{} {} {} {} {} {} {} {} {} {} {} {} {}",
                r.class.name(),
                r.size,
                r.procs,
                bits(r.pfail),
                bits(r.ccr),
                r.model,
                bits(r.shape),
                r.strategy,
                bits(r.model_em),
                bits(r.sim_em),
                bits(r.sim_stderr),
                bits(r.rel_err_pct),
                r.diverged
            )
        },
        &[
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 CkptAll 40868a63b165b019 4086fc9281c01e27 402d47dcefbbe17d 3fff0bc862e0fa63 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 CkptSome 4086826c47274e43 4086c61b5a6c513a 401e1884ba0eee69 3ff293330a286bbd 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 ExitOnly 4087c8bcbb1710cb 4087ec2ac9b5b027 4033385b8583f456 3fe28349590fda51 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 CkptNone 408d9baa800411e0 408b98b67221ba32 4048544523aafc4f 401d2807795b40ea 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptAll 408c59da4f29ce4a 408bc3ac872c40bb 403095d699b639af 4000e73df1bb2355 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptSome 408b2f2458de19ca 408cf7f2d963d55e 40404ad4bcd37513 4018a39f3c2e46f9 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 ExitOnly 408c1d3ea1933b31 408da58411cd4491 4043adc4b81566b0 4014aca3d68389ac 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptNone 409af379d2de77b1 4090b940ccd57c78 4053e6cee64063ef 404e93e82f246ff6 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptAll 40a361caa1a4d0ce 40a3618ce9bcb64a 4033eea71fd5ecdd 3f73e726c1bd7a04 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptSome 40a3040c34b7bc78 40a322bd3e12b776 403d87cb4fa4a901 3fe40c724cf4cc20 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 ExitOnly 40a3dc4e22e2e8ff 40a3b5739f4d3035 404a6d5d0be8b6a4 3fe8a46c5e3eb99b 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptNone 40a6b07bd62d474c 40a49a05113b6b11 4058c3091c4696af 4024448eaab5f99c 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 CkptAll 4088e53bbba676fd 4089f5b0326e8ca0 4038d3942173c2a6 4010661e49758f4a 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 CkptSome 4088c889d29815f7 408a8215d48fa40e 40344f17c8f262ed 401a06cf987736dc 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 ExitOnly 408ec00f75910864 4096f7c784b27aaf 4056a5380f1eae6b 404087731210e17b 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 CkptNone 40aef73ad2ceb35e 411a13eb00f6d34a 40ee2e21faa59ef6 4058c4a0cf8a1e97 11",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptAll 4092fa9aef428243 40d967e1841f1e44 40afb1e71c20d0db 4057d52ff43d04be 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptSome 4092b794162df990 40d8a74c6efa09de 40af6cf6fc285f7e 4057d05142ece4d6 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 ExitOnly 4092971be3f732d1 413b5ef203444df6 410d5df911ad0129 4058fbc1482aedf8 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptNone 40e60b29f56d5a76 7ff0000000000000 7ff0000000000000 7ff0000000000000 30",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptAll 40a3f7199badfb55 40a3c905502b2e9f 40387e5b46649961 3fed1cb66b8858f3 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptSome 40a390149786939d 40a41586316d2c41 404a8915b6a63aa6 4004c3678ec59f56 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 ExitOnly 40a967cd0c17d15c 40ad07c143bf07a5 406811610ffcaf2e 4028f9012d20bf30 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptNone 40c369ef6c08a064 4134daf65a8cc467 410af0d3635a9111 4058d174bb307c38 10",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc lognormal 3ff0000000000000 CkptAll 408920d5842055da 408a921a3ae190ac 4039324b3ee11f55 4015b7077369c54b 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc lognormal 3ff0000000000000 CkptSome 40890b4d45fe8bd5 408a3ceaf0d9d0e2 4032cb39760278c6 4012332419ed53ee 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc lognormal 3ff0000000000000 ExitOnly 408edf48ddfc18d3 409352cab13cbdbb 404fe8c311438c21 40341df825f2ffbc 0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc lognormal 3ff0000000000000 CkptNone 40a286455f77344e 40b81d5232df66bd 408a700428179e58 404ecb98d4f8409e 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 CkptAll 4092b9a77d9cff14 409a1ec2e5c341f7 405972ec33b07d1b 403c4faf65bd581a 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 CkptSome 40927696a2208fe5 409745e264fc7c97 40591ee8917020c6 4034aaaa7e463c0e 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 ExitOnly 409296d29b0918c1 40a2acbf2692e712 407120037b744f1b 40491d5987f064ae 0",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 CkptNone 40b85c632170e762 40ac95cea1184532 4080de0f82c46525 40519c6d0399c096 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 CkptAll 40a44452a0aed180 40a4d27ce60f9eb1 404998a92daa64a0 4005560e05b85e0b 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 CkptSome 40a3df1998b48aa9 40a441fcdc020035 404898ec0b25cc0a 3ffe825ba43f41a5 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 ExitOnly 40a904346f23ef7f 40ac632347441631 406469189186df5b 4027bfb8861746b9 0",
            "ligo 50 5 3f847ae147ae147b 3fa030dc4ea03a72 lognormal 3ff0000000000000 CkptNone 40ba64237ab30cf6 40c6b37eff3194c0 409abaa5c5b01e44 4044efb2a41f6962 0",
        ],
    );
}

#[test]
fn strategies_rows_keep_their_bits() {
    let pfail = f64::NAN;
    let scenario = StrategiesScenario {
        policies: vec![
            PolicySpec::DpOptimal,
            PolicySpec::CkptAll,
            PolicySpec::ExitOnly,
            PolicySpec::Daly { period: None },
            PolicySpec::Risk { max_risk: 0.1 },
            PolicySpec::Crossover,
        ],
        models: vec![
            ModelSpec::Exponential { pfail },
            ModelSpec::Weibull { shape: 2.0, pfail },
        ],
        classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfails: vec![0.01],
        runs: 30,
        base_seed: 42,
    };
    check(
        &scenario,
        |r| {
            format!(
                "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                r.class.name(),
                r.size,
                r.procs,
                bits(r.pfail),
                bits(r.ccr),
                r.model,
                bits(r.shape),
                r.policy,
                bits(r.model_em),
                bits(r.sim_em),
                bits(r.sim_stderr),
                bits(r.rel_err_pct),
                r.segments,
                r.ckpt_files,
                bits(r.ckpt_bytes)
            )
        },
        &[
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 CkptSome 4086826c47274e43 4086c61b5a6c513a 401e1884ba0eee69 3ff293330a286bbd 21 27 418f3480144992b2",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptSome 408b2f2458de19ca 408cf7f2d963d55e 40404ad4bcd37513 4018a39f3c2e46f9 28 47 41cb5a8aa49b492a",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 CkptSome 4088c889d29815f7 408a8215d48fa40e 40344f17c8f262ed 401a06cf987736dc 24 28 419c2c1515b1142e",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptSome 4092b794162df990 40d8a74c6efa09de 40af6cf6fc285f7e 4057d05142ece4d6 29 48 41e0811d20ba95fe",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 CkptAll 40868a63b165b019 4086fc9281c01e27 402d47dcefbbe17d 3fff0bc862e0fa63 48 47 41aa15c17c075396",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 CkptAll 408c59da4f29ce4a 408bc3ac872c40bb 403095d699b639af 4000e73df1bb2355 50 49 41e20041849982cb",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 CkptAll 4088e53bbba676fd 4089f5b0326e8ca0 4038d3942173c2a6 4010661e49758f4a 48 47 41aa15c17c075396",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 CkptAll 4092fa9aef428243 40d967e1841f1e44 40afb1e71c20d0db 4057d52ff43d04be 50 49 41e20041849982cb",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 ExitOnly 4087c8bcbb1710cb 4087ec2ac9b5b027 4033385b8583f456 3fe28349590fda51 7 12 4174326a7837d28c",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 ExitOnly 408c1d3ea1933b31 408da58411cd4491 4043adc4b81566b0 4014aca3d68389ac 17 45 41cb2139b384c832",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 ExitOnly 408ec00f75910864 4096f7c784b27aaf 4056a5380f1eae6b 404087731210e17b 7 12 4174326a7837d28c",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 ExitOnly 4092971be3f732d1 413b5ef203444df6 410d5df911ad0129 4058fbc1482aedf8 17 45 41cb2139b384c832",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 DalyPeriodic 4086880616282e64 4086cc4e00a52c1b 4023a67be549b8da 3ff2b80cdf10c09a 14 19 419842b962230b7a",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 DalyPeriodic 408bdf12913c7d1b 408d3e059c0e1605 4039b277edf81dd3 4012c09372c60f36 19 47 41e080f493bdd4d4",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 DalyPeriodic 4088ec309d9ce2f3 408b9bc245bd43e9 4039865a91b36be1 402374dca9932821 14 19 419842b962230b7a",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 DalyPeriodic 4092d6c76f768160 40d76c473e545050 40affdf976089597 4057be4826b04549 20 48 41e20018f79cc1a1",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 RiskThreshold 4087c8bcbb1710cb 4087ec2ac9b5b027 4033385b8583f456 3fe28349590fda51 7 12 4174326a7837d28c",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 RiskThreshold 408cc44aa3905848 408ea18aff7f8e2e 404394f4a836375e 40185842db854e02 18 46 41e072c8e474f5c0",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 RiskThreshold 408bc7655107c4a1 408fd69263baa220 4047558b1a0ddd1a 40297fdcdfebc46f 11 15 417e9744d956d7ca",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 RiskThreshold 4092d6c76f768160 40d76c473e545050 40affdf976089597 4057be4826b04549 20 48 41e20018f79cc1a1",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc exponential 3ff0000000000000 GreedyCrossover 4086869114022413 4086c53bd85e8d94 4023a67be549b8da 3ff133657d5d0a63 13 18 418b72c2533bec44",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 exponential 3ff0000000000000 GreedyCrossover 408c7e82eba885bd 408ac45fa5ea6422 40320e2879048201 4019cf2fafc17f4c 46 45 41cb2139b384c832",
            "genome 50 5 3f847ae147ae147b 3f50624dd2f1a9fc weibull 4000000000000000 GreedyCrossover 4089008129017c20 408bf50b484564eb 403a78f5361d96d7 4025242042aa6f66 13 18 418b72c2533bec44",
            "montage 50 5 3f847ae147ae147b 3fa030dc4ea03a72 weibull 4000000000000000 GreedyCrossover 4092c7e6fcfd987e 413b52741d6bd851 410d61587b9e6eb8 4058fbb42df15f87 46 45 41cb2139b384c832",
        ],
    );
}
