//! Plain-text table and series printing for the figures.

/// Prints a titled, aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a normalized value with 2 decimals ("1.00", "0.85"…).
pub fn norm(x: f64) -> String {
    format!("{x:.2}")
}

/// A table row: `label`, then each value formatted by [`norm`].
pub fn row(label: &str, values: &[f64]) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(values.iter().map(|&v| norm(v)));
    row
}

/// Prints a `(x, y)` series as compact columns (time-line figures).
pub fn print_series(title: &str, unit: &str, series: &[(String, Vec<f64>)], x_labels: &[String]) {
    println!("\n== {title} ({unit}) ==");
    let mut header = vec!["t".to_string()];
    header.extend(series.iter().map(|(n, _)| n.clone()));
    println!(
        "  {}",
        header
            .iter()
            .map(|h| format!("{h:>12}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (i, x) in x_labels.iter().enumerate() {
        let mut row = vec![format!("{x:>12}")];
        for (_, ys) in series {
            row.push(format!("{:>12.3}", ys.get(i).copied().unwrap_or(0.0)));
        }
        println!("  {}", row.join(" "));
    }
}

/// Geometric-mean helper that tolerates empty input (returns 1.0).
pub fn geomean_or_one(vals: &[f64]) -> f64 {
    emerald::common::stats::geomean(vals).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(norm(1.0), "1.00");
        assert_eq!(norm(0.854), "0.85");
        assert_eq!(geomean_or_one(&[]), 1.0);
        assert!((geomean_or_one(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn print_paths_do_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        print_series(
            "s",
            "GB/s",
            &[("cpu".into(), vec![1.0, 2.0])],
            &["0".into(), "100".into()],
        );
    }
}
