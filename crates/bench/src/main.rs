//! `massf-bench`: runs rows of the experiment registry (see the library
//! docs). The only place a table is printed, self-checked or written.

use massf_metrics::improvement_pct;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect(); // srclint: allow(SA004) — the bench binary's own command line
    let (ctx, rows) = massf_bench::parse(&args).unwrap_or_else(|e| {
        eprintln!("massf-bench: {e}");
        std::process::exit(2);
    });
    if rows.is_empty() {
        print!("{}", massf_bench::listing());
    }
    for experiment in rows {
        let out = (experiment.run)(&ctx);
        for (table, precision) in &out.tables {
            print!("{}", table.render(*precision));
            // The improvement the paper quotes: PROFILE vs TOP, per row.
            for row in &table.rows {
                if let (Some(top), Some(profile)) =
                    (table.get(row, "TOP"), table.get(row, "PROFILE"))
                {
                    let pct = improvement_pct(top, profile);
                    println!("  {row}: PROFILE improves on TOP by {pct:.0}%");
                }
            }
            let json = table.to_json();
            massf_core::obs::json::parse(&json).expect("a rendered table is valid JSON");
            for row in &table.rows {
                for col in out.positive {
                    let cell = table.get(row, col);
                    assert!(
                        cell > Some(0.0),
                        "{}: {row}/{col} is {cell:?}, not positive",
                        table.id
                    );
                }
                // The paper's shape is the full-scale grid's: smoke inputs
                // are too small to order the approaches.
                let shaped = out
                    .falling
                    .iter()
                    .filter(|(id, _)| !ctx.smoke && *id == table.id);
                for (_, cols) in shaped {
                    let cells: Vec<_> = cols.iter().map(|col| table.get(row, col)).collect();
                    assert!(
                        cells.windows(2).all(|pair| pair[0] > pair[1]),
                        "{}: {row} reads {cells:?} over {cols:?}, not strictly falling",
                        table.id
                    );
                }
            }
            if ctx.smoke {
                println!("(smoke: {}.json checked, not written)\n", table.id);
                continue;
            }
            let path = std::path::Path::new("results").join(format!("{}.json", table.id));
            if let Err(e) =
                std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json))
            {
                eprintln!("massf-bench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("(wrote {})\n", path.display());
        }
        println!("{}\n", out.notes);
    }
}
