//! A one-object JSON writer for the helper's single output line.

use wp_sim::json_string;

/// Fields of one JSON object, in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    fn field(&mut self, key: &str, value: String) {
        self.0.push(format!("{}:{value}", json_string(key)));
    }

    /// A float, written with all its digits (`null` if not finite).
    pub fn num(&mut self, key: &str, v: f64) {
        self.field(key, num(v));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.field(key, v.to_string());
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.field(key, json_string(v));
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|&v| num(v)).collect();
        self.field(key, format!("[{}]", items.join(",")));
    }

    pub fn strs(&mut self, key: &str, vs: &[String]) {
        let items: Vec<String> = vs.iter().map(|v| json_string(v)).collect();
        self.field(key, format!("[{}]", items.join(",")));
    }

    /// A nested object.
    pub fn obj(&mut self, key: &str, v: Obj) {
        self.field(key, v.finish());
    }

    /// An array of nested objects.
    pub fn objs(&mut self, key: &str, vs: Vec<Obj>) {
        let items: Vec<String> = vs.into_iter().map(Obj::finish).collect();
        self.field(key, format!("[{}]", items.join(",")));
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
