//! The `seal` subcommands.

use crate::args::{parse_region, Args};
use seal_core::{
    BuildOpts, FilterKind, LiveEngine, ObjectStore, Query, QueryEngine, RoiObject, SealEngine,
    ShardedEngine, SimilarityConfig,
};
use seal_datagen::{io as dio, twitter_like, usa_like, Dataset, TwitterParams, UsaParams};
use seal_text::{TokenId, TokenSet};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::sync::Arc;

/// Help text printed on errors and by `seal help`.
pub const USAGE: &str = "\
usage: seal <command> [--option value ...]

commands:
  generate  --kind twitter|usa --out FILE [--objects N] [--seed N]
            synthesize a dataset and write it as TSV
  stats     --data FILE
            print dataset statistics (Table 1's data rows)
  index     --data FILE [--filter seal|token|token-compressed|grid|hash|
            hash-compressed] [--threads N]
            [--shards N]
            build an index and report build time + size (alias: build;
            --threads 0 = one worker per core, default 1; --shards N>1
            partitions the corpus across N engine shards)
  query     --data FILE --region x0,y0,x1,y1 --tokens a,b,c
            [--tau-r F] [--tau-t F] [--filter ...] [--top-k N]
            run one spatio-textual similarity query
  save      --data FILE --out FILE.seal [--filter ...] [--threads N]
            build an index and persist data + index as one atomic,
            checksummed .seal container
  load      --index FILE.seal [--threads N] [--region x0,y0,x1,y1
            --tokens a,b,c [--tau-r F] [--tau-t F]]
            load a .seal container (fully validated before use) and
            optionally answer one query from it
  serve     --data FILE [--addr 127.0.0.1:7878] [--filter ...]
            [--threads N] [--shards N] [--max-connections N]
            [--max-batch N] [--max-queued N] [--max-staged N]
            [--timeout-secs N] [--seconds N]
            run the HTTP serving tier: /query /push /refresh /status
            /metrics (adaptive query batching, 503 backpressure;
            --shards N>1 serves a partitioned engine with per-shard
            /status detail; --seconds 0 = run until killed)
  loadgen   --addr HOST:PORT [--qps F] [--seconds F] [--clients N]
            [--region x0,y0,x1,y1] [--tokens a,b,c] [--tau-r F]
            [--tau-t F] [--push-every N]
            open-loop load generator against a running serve:
            reports exact client-side p50/p95/p99 latency
  help      show this message";

/// Entry point used by `main` (and by the tests, with captured output).
pub fn run(argv: &[String]) -> Result<(), Box<dyn Error>> {
    if argv.is_empty() || argv[0] == "help" {
        println!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "stats" => cmd_stats(&args),
        "index" | "build" => cmd_index(&args),
        "query" => cmd_query(&args),
        "save" => cmd_save(&args),
        "load" => cmd_load(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        other => Err(format!("unknown command {other:?}").into()),
    }
}

fn cmd_generate(args: &Args) -> Result<(), Box<dyn Error>> {
    let kind = args.required("kind")?;
    let out = args.required("out")?;
    let objects: usize = args.parsed_or("objects", 10_000)?;
    let seed: u64 = args.parsed_or("seed", 2012)?;
    let dataset = match kind {
        "twitter" => twitter_like(&TwitterParams {
            count: objects,
            seed,
            ..TwitterParams::default()
        }),
        "usa" => usa_like(&UsaParams {
            count: objects,
            seed,
            ..UsaParams::default()
        }),
        other => return Err(format!("unknown dataset kind {other:?}").into()),
    };
    let names: Vec<String> = (0..dataset.vocab_size).map(|i| format!("tok{i}")).collect();
    let mut w = BufWriter::new(File::create(out)?);
    dio::write_tsv(&mut w, &dataset, &names)?;
    w.flush()?;
    println!(
        "wrote {} objects ({}, avg area {:.2}, avg tokens {:.1}) to {out}",
        dataset.objects.len(),
        dataset.name,
        dataset.avg_region_area(),
        dataset.avg_token_count(),
    );
    Ok(())
}

/// Loads a TSV dataset into an object store plus the token-name table.
fn load(path: &str) -> Result<(Arc<ObjectStore>, Vec<String>), Box<dyn Error>> {
    let reader = BufReader::new(File::open(path)?);
    let (dataset, names) = dio::read_tsv(reader)?;
    Ok((store_from(&dataset), names))
}

fn store_from(dataset: &Dataset) -> Arc<ObjectStore> {
    let objects = dataset
        .objects
        .iter()
        .map(|o| RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied())))
        .collect();
    Arc::new(ObjectStore::from_objects(objects, dataset.vocab_size))
}

/// A dataset's records as an object store built over token *names*,
/// so the store interns a dictionary and a saved `.seal` container
/// carries it — `load` then resolves query tokens by name without the
/// original TSV.
fn labeled_store_from(
    dataset: &Dataset,
    names: &[String],
) -> Result<Arc<ObjectStore>, Box<dyn Error>> {
    let mut items = Vec::with_capacity(dataset.objects.len());
    for o in &dataset.objects {
        let mut tokens = Vec::with_capacity(o.tokens.len());
        for t in &o.tokens {
            let name = names.get(t.0 as usize).ok_or_else(|| {
                format!(
                    "token id {} out of range of the name table ({} names)",
                    t.0,
                    names.len()
                )
            })?;
            tokens.push(name.as_str());
        }
        items.push((o.region, tokens));
    }
    Ok(Arc::new(ObjectStore::from_labeled(items)))
}

/// Builds the serving engine every engine-generic command drives: one
/// [`LiveEngine`] arena, or a [`ShardedEngine`] partition when
/// `--shards N` asks for more than one. Everything downstream sees
/// only `Arc<dyn QueryEngine>`.
fn build_engine(
    store: Arc<ObjectStore>,
    kind: FilterKind,
    threads: usize,
    shards: usize,
) -> Arc<dyn QueryEngine> {
    let opts = BuildOpts::with_threads(threads);
    if shards > 1 {
        Arc::new(ShardedEngine::with_opts(
            &store,
            kind,
            SimilarityConfig,
            opts,
            shards,
            None,
        ))
    } else {
        Arc::new(LiveEngine::with_opts(store, kind, SimilarityConfig, opts))
    }
}

/// `"filter"` or `"filter over N shard(s)"` for human-readable
/// banners.
fn engine_label(engine: &dyn QueryEngine) -> String {
    let status = engine.status();
    if status.shards.is_empty() {
        status.filter
    } else {
        format!("{} over {} shard(s)", status.filter, status.shards.len())
    }
}

fn filter_kind(name: &str) -> Result<FilterKind, Box<dyn Error>> {
    Ok(match name {
        "seal" | "hierarchical" => FilterKind::seal_default(),
        "token" => FilterKind::Token,
        "token-compressed" | "tokenc" => FilterKind::TokenCompressed,
        "grid" => FilterKind::Grid { side: 1024 },
        "hash" => FilterKind::HashHybrid {
            side: 1024,
            buckets: Some(1 << 20),
        },
        "hash-compressed" | "hashc" => FilterKind::HashHybridCompressed {
            side: 1024,
            buckets: Some(1 << 20),
        },
        other => return Err(format!("unknown filter {other:?}").into()),
    })
}

fn cmd_stats(args: &Args) -> Result<(), Box<dyn Error>> {
    let (store, _names) = load(args.required("data")?)?;
    let s = store.stats();
    println!("objects:          {}", s.objects);
    println!("vocabulary:       {}", s.vocab_size);
    println!("avg region area:  {:.4}", s.avg_region_area);
    println!("entire space:     {:.1}", s.space_area);
    println!("avg tokens:       {:.2}", s.avg_token_count);
    println!("data bytes:       {}", s.data_bytes);
    Ok(())
}

fn cmd_index(args: &Args) -> Result<(), Box<dyn Error>> {
    let (store, _names) = load(args.required("data")?)?;
    let kind = filter_kind(args.optional("filter").unwrap_or("seal"))?;
    let threads: usize = args.parsed_or("threads", 1)?;
    let shards: usize = args.parsed_or("shards", 1)?;
    let opts = BuildOpts::with_threads(threads);
    let t0 = std::time::Instant::now();
    let engine = build_engine(store, kind, threads, shards);
    let status = engine.status();
    println!(
        "built {} in {:.3}s on {} build thread(s), index size {:.2} MB",
        engine_label(engine.as_ref()),
        t0.elapsed().as_secs_f64(),
        opts.resolved_threads(),
        status.index_bytes as f64 / (1024.0 * 1024.0),
    );
    for (i, s) in status.shards.iter().enumerate() {
        println!("  shard {i}: {} objects", s.objects);
    }
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), Box<dyn Error>> {
    let (store, names) = load(args.required("data")?)?;
    let region = parse_region(args.required("region")?)?;
    let tau_r: f64 = args.parsed_or("tau-r", 0.4)?;
    let tau_t: f64 = args.parsed_or("tau-t", 0.4)?;
    let kind = filter_kind(args.optional("filter").unwrap_or("seal"))?;

    // Resolve query tokens against the dataset's vocabulary.
    let (ids, unknown) = resolve_tokens(args.required("tokens")?, |t| {
        names.iter().position(|n| n == t).map(|i| TokenId(i as u32))
    });
    if !unknown.is_empty() {
        eprintln!("note: tokens not in the dataset vocabulary: {unknown:?}");
    }

    let engine = SealEngine::build(store, kind);
    if args.optional("top-k").is_some() {
        let k: usize = args.parsed("top-k")?;
        let top = engine.search_top_k(region, TokenSet::from_ids(ids), k, 0.5);
        println!("top-{k} by combined score:");
        for (id, score) in top {
            println!("  object {:>8}  score {score:.4}", id.0);
        }
        return Ok(());
    }

    let q = Query::with_token_ids(region, ids, tau_r, tau_t)
        .map_err(|e| format!("invalid thresholds: {e}"))?;
    let engine_name = format!(", engine {}", engine.filter_name());
    print_answers(&engine, &q, &engine_name, |t| {
        names.get(t.0 as usize).map(String::as_str)
    });
    Ok(())
}

/// Splits a comma-separated token list and resolves each name through
/// `lookup`: the ids found, and the names that were not.
fn resolve_tokens(
    list: &str,
    lookup: impl Fn(&str) -> Option<TokenId>,
) -> (Vec<TokenId>, Vec<&str>) {
    let mut ids = Vec::new();
    let mut unknown = Vec::new();
    for t in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match lookup(t) {
            Some(id) => ids.push(id),
            None => unknown.push(t),
        }
    }
    (ids, unknown)
}

/// Answers `q` and prints the count line (`note` is appended inside
/// its parentheses), then the first 20 answers by id with their area
/// and token names.
fn print_answers<'a>(
    engine: &SealEngine,
    q: &Query,
    note: &str,
    name: impl Fn(TokenId) -> Option<&'a str>,
) {
    let t0 = std::time::Instant::now();
    let result = engine.search(q);
    let elapsed = t0.elapsed();
    let result = result.sorted();
    println!(
        "{} answers ({} candidates, {elapsed:?}{note})",
        result.answers.len(),
        result.stats.candidates,
    );
    for id in result.answers.iter().take(20) {
        let o = engine.store().get(*id);
        let toks: Vec<&str> = o.tokens.iter().filter_map(&name).collect();
        println!(
            "  object {:>8}  area {:.3}  tokens {}",
            id.0,
            o.region.area(),
            toks.join(",")
        );
    }
    if result.answers.len() > 20 {
        println!("  … and {} more", result.answers.len() - 20);
    }
}

/// Builds an index over the dataset and persists data + index as one
/// atomic, checksummed `.seal` container.
fn cmd_save(args: &Args) -> Result<(), Box<dyn Error>> {
    let data = args.required("data")?;
    let out = args.required("out")?;
    let kind = filter_kind(args.optional("filter").unwrap_or("seal"))?;
    let threads: usize = args.parsed_or("threads", 1)?;
    let reader = BufReader::new(File::open(data)?);
    let (dataset, names) = dio::read_tsv(reader)?;
    let store = labeled_store_from(&dataset, &names)?;

    let t0 = std::time::Instant::now();
    let engine = SealEngine::build_with_opts(
        store,
        kind,
        SimilarityConfig,
        BuildOpts::with_threads(threads),
    );
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let bytes = engine.save(std::path::Path::new(out))?;
    println!(
        "saved {} over {} objects to {out}: {:.2} MB in {:.3}s (built in {build_s:.3}s)",
        engine.filter_name(),
        engine.store().len(),
        bytes as f64 / (1024.0 * 1024.0),
        t1.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// Loads a `.seal` container — every section CRC-verified and every
/// count validated before the engine is constructed — and optionally
/// answers one query from it, resolving tokens through the persisted
/// dictionary.
fn cmd_load(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.required("index")?;
    let threads: usize = args.parsed_or("threads", 1)?;
    let t0 = std::time::Instant::now();
    let engine = SealEngine::load_with_threads(std::path::Path::new(path), threads)?;
    println!(
        "loaded {} over {} objects from {path} in {:.3}s (index {:.2} MB)",
        engine.filter_name(),
        engine.store().len(),
        t0.elapsed().as_secs_f64(),
        engine.index_bytes() as f64 / (1024.0 * 1024.0),
    );

    let (Some(region), Some(tokens)) = (args.optional("region"), args.optional("tokens")) else {
        return Ok(());
    };
    let region = parse_region(region)?;
    let tau_r: f64 = args.parsed_or("tau-r", 0.4)?;
    let tau_t: f64 = args.parsed_or("tau-t", 0.4)?;
    let dict = engine.store().dictionary();
    let (ids, unknown) = resolve_tokens(tokens, |t| dict.and_then(|d| d.get(t)));
    if !unknown.is_empty() {
        eprintln!("note: tokens not in the saved dictionary: {unknown:?}");
    }
    let q = Query::with_token_ids(region, ids, tau_r, tau_t)
        .map_err(|e| format!("invalid thresholds: {e}"))?;
    print_answers(&engine, &q, "", |t| dict.and_then(|d| d.name(t)));
    Ok(())
}

/// Runs the network serving tier: builds the engine over the dataset
/// (one [`LiveEngine`] arena, or a sharded partition with
/// `--shards N`; the dictionary is interned either way, so clients may
/// send token *names*), then serves `/query` `/push` `/refresh`
/// `/status` `/metrics` until killed (or for `--seconds N`, the CI
/// smoke mode).
fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    let path = args.required("data")?;
    let reader = BufReader::new(File::open(path)?);
    let (dataset, names) = dio::read_tsv(reader)?;
    let store = labeled_store_from(&dataset, &names)?;
    let kind = filter_kind(args.optional("filter").unwrap_or("seal"))?;
    let threads: usize = args.parsed_or("threads", 0)?;
    let shards: usize = args.parsed_or("shards", 1)?;
    let seconds: u64 = args.parsed_or("seconds", 0)?;
    let cfg = seal_server::ServerConfig {
        addr: args
            .optional("addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        max_connections: args.parsed_or("max-connections", 128)?,
        threads,
        max_batch: args.parsed_or("max-batch", 64)?,
        max_queued: args.parsed_or("max-queued", 1024)?,
        max_staged: args.parsed_or("max-staged", 1 << 20)?,
        request_timeout: std::time::Duration::from_secs(args.parsed_or("timeout-secs", 10u64)?),
        limits: seal_server::Limits::default(),
    };

    let t0 = std::time::Instant::now();
    let engine = build_engine(store, kind, threads, shards);
    let built = t0.elapsed().as_secs_f64();
    let server = seal_server::Server::spawn(engine.clone(), cfg)?;
    println!(
        "serving {} objects with {} on http://{} (built in {built:.3}s)",
        engine.len(),
        engine_label(engine.as_ref()),
        server.addr(),
    );
    println!("endpoints: /query /push /refresh /status /metrics");
    if seconds == 0 {
        // Daemon mode: serve until the process is killed.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(seconds));
    println!("{}", server.metrics_json());
    server.shutdown();
    println!("clean shutdown after {seconds}s");
    Ok(())
}

/// Open-loop load generation against a running `serve`, reporting
/// exact client-side latency percentiles (and the server's own view
/// via `/status`).
fn cmd_loadgen(args: &Args) -> Result<(), Box<dyn Error>> {
    let addr = args.required("addr")?;
    let qps: f64 = args.parsed_or("qps", 100.0)?;
    let seconds: f64 = args.parsed_or("seconds", 5.0)?;
    let clients: usize = args.parsed_or("clients", 8)?;
    let region = args.optional("region").unwrap_or("0,0,1000,1000");
    parse_region(region)?; // fail fast on a bad region, client-side
    let tokens = args.optional("tokens").unwrap_or("0,1");
    let tau_r: f64 = args.parsed_or("tau-r", 0.2)?;
    let tau_t: f64 = args.parsed_or("tau-t", 0.2)?;
    let push_every: usize = args.parsed_or("push-every", 0)?;

    let query_target = (
        "GET".to_string(),
        format!("/query?region={region}&tokens={tokens}&tau_r={tau_r}&tau_t={tau_t}"),
        Vec::new(),
    );
    let mut targets = vec![query_target];
    if push_every > 0 {
        // Every push-every-th request stages one object shaped like
        // the query (exercises the ingest path under load).
        let push_body = format!("{} {}\n", region.replace(',', " "), tokens);
        targets = std::iter::repeat_n(targets[0].clone(), push_every.saturating_sub(1).max(1))
            .chain(std::iter::once((
                "POST".to_string(),
                "/push".to_string(),
                push_body.into_bytes(),
            )))
            .collect();
    }

    let mut probe = seal_server::HttpClient::connect(addr)?;
    let before = probe.request("GET", "/status", b"")?;
    if before.status != 200 {
        return Err(format!("server /status answered {}", before.status).into());
    }
    println!("server before: {}", before.text());
    let report = seal_server::client::run_load(
        addr,
        &targets,
        qps,
        std::time::Duration::from_secs_f64(seconds),
        clients,
    )?;
    println!("{}", report.to_json());
    let after = probe.request("GET", "/status", b"")?;
    println!("server after:  {}", after.text());
    if report.ok == 0 {
        return Err("no request succeeded — is the address right?".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("seal-cli-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn generate_stats_index_query_pipeline() {
        let data = temp_path("pipeline.tsv");
        let data_s = data.to_str().unwrap().to_string();
        run(&argv(&format!(
            "generate --kind twitter --objects 500 --seed 7 --out {data_s}"
        )))
        .unwrap();
        run(&argv(&format!("stats --data {data_s}"))).unwrap();
        run(&argv(&format!("index --data {data_s} --filter grid"))).unwrap();
        // `build` is an alias of `index`; --threads drives the
        // build-side fan-out (0 = one worker per core).
        run(&argv(&format!(
            "build --data {data_s} --filter seal --threads 4"
        )))
        .unwrap();
        run(&argv(&format!("build --data {data_s} --threads 0"))).unwrap();
        // Sharded build: partitions the same corpus across 4 engines.
        run(&argv(&format!(
            "index --data {data_s} --filter token --shards 4"
        )))
        .unwrap();
        // Query with a huge region and a frequent token: must not error.
        run(&argv(&format!(
            "query --data {data_s} --region 0,0,40000,40000 --tokens tok0 \
             --tau-r 0.01 --tau-t 0.01 --filter token"
        )))
        .unwrap();
        run(&argv(&format!(
            "query --data {data_s} --region 0,0,40000,40000 --tokens tok0 --top-k 5"
        )))
        .unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn save_load_roundtrip_and_corruption() {
        let data = temp_path("persist.tsv");
        let data_s = data.to_str().unwrap().to_string();
        let seal = temp_path("persist.seal");
        let seal_s = seal.to_str().unwrap().to_string();
        run(&argv(&format!(
            "generate --kind twitter --objects 300 --seed 11 --out {data_s}"
        )))
        .unwrap();
        run(&argv(&format!(
            "save --data {data_s} --out {seal_s} --filter seal --threads 2"
        )))
        .unwrap();
        run(&argv(&format!("load --index {seal_s} --threads 2"))).unwrap();
        // Query the loaded container; tokens resolve through the
        // persisted dictionary (tok0 exists, zzz is reported unknown).
        run(&argv(&format!(
            "load --index {seal_s} --region 0,0,40000,40000 --tokens tok0,zzz \
             --tau-r 0.01 --tau-t 0.01"
        )))
        .unwrap();

        // A missing container is an error, not a panic.
        assert!(run(&argv("load --index /nonexistent-container.seal")).is_err());
        // A flipped byte anywhere trips a CRC: error, not a panic.
        let pristine = std::fs::read(&seal).unwrap();
        let mut bytes = pristine.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seal, &bytes).unwrap();
        assert!(run(&argv(&format!("load --index {seal_s}"))).is_err());
        // So is a truncated file.
        std::fs::write(&seal, &pristine[..pristine.len() / 3]).unwrap();
        assert!(run(&argv(&format!("load --index {seal_s}"))).is_err());

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&seal).ok();
    }

    #[test]
    fn serve_and_loadgen_roundtrip() {
        let data = temp_path("serve.tsv");
        let data_s = data.to_str().unwrap().to_string();
        run(&argv(&format!(
            "generate --kind twitter --objects 300 --seed 5 --out {data_s}"
        )))
        .unwrap();
        // A fixed port keeps serve and loadgen in touch; high and
        // PID-free ports collide rarely, and a collision fails loudly.
        let addr = "127.0.0.1:39137";
        let server = std::thread::spawn({
            let data_s = data_s.clone();
            // Box<dyn Error> is not Send; carry the message across.
            move || {
                run(&argv(&format!(
                    "serve --data {data_s} --addr {addr} --filter token \
                     --threads 1 --shards 2 --seconds 3"
                )))
                .map_err(|e| e.to_string())
            }
        });
        // Wait for the listener, then drive a short load.
        let mut up = false;
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(100));
            if seal_server::HttpClient::connect(addr).is_ok() {
                up = true;
                break;
            }
        }
        assert!(up, "serve never bound {addr}");
        run(&argv(&format!(
            "loadgen --addr {addr} --qps 40 --seconds 1 --clients 4 \
             --tokens tok0,tok1 --push-every 10"
        )))
        .unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&argv("bogus")).is_err());
        // The measurement commands are gone: the benchmark owns timing.
        for gone in ["batch", "ingest"] {
            let e = run(&argv(&format!("{gone} --data x.tsv"))).unwrap_err();
            assert!(e.to_string().starts_with("unknown command"), "{e}");
        }
        assert!(run(&argv("generate --kind nope --out /tmp/x")).is_err());
        assert!(run(&argv(
            "query --data /nonexistent-file.tsv --region 0,0,1,1 --tokens a"
        ))
        .is_err());
        run(&argv("help")).unwrap();
        run(&[]).unwrap();
    }

    #[test]
    fn filter_kinds_resolve() {
        for f in [
            "seal",
            "token",
            "token-compressed",
            "tokenc",
            "grid",
            "hash",
            "hash-compressed",
            "hashc",
        ] {
            assert!(filter_kind(f).is_ok(), "{f}");
        }
        // The §2.3 baselines are not engine filters (they live in
        // seal-bench), so their old names are unknown too.
        for gone in ["nope", "adaptive", "irtree", "keyword", "spatial"] {
            let e = filter_kind(gone).unwrap_err();
            assert!(e.to_string().starts_with("unknown filter"), "{e}");
        }
    }
}
